package nws

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestReadLoadAvg(t *testing.T) {
	dir := t.TempDir()
	write := func(content string) string {
		p := filepath.Join(dir, "loadavg")
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := write("0.52 0.58 0.59 1/389 12345\n")
	v, err := readLoadAvg(p)
	if err != nil || v != 0.52 {
		t.Errorf("readLoadAvg=%g err=%v", v, err)
	}
	p = write("")
	if _, err := readLoadAvg(p); err == nil {
		t.Error("empty file should fail")
	}
	p = write("abc 1 2\n")
	if _, err := readLoadAvg(p); err == nil {
		t.Error("garbage should fail")
	}
	p = write("-1 0 0\n")
	if _, err := readLoadAvg(p); err == nil {
		t.Error("negative loadavg should fail")
	}
	if _, err := readLoadAvg(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestNewHostMonitorValidation(t *testing.T) {
	if runtime.GOOS != "linux" {
		if _, err := NewHostMonitor(10); !errors.Is(err, ErrHostSensorUnavailable) {
			t.Errorf("non-linux err=%v", err)
		}
		t.Skip("host sensor requires linux")
	}
	if _, err := newHostMonitor("/nonexistent/loadavg", 10); !errors.Is(err, ErrHostSensorUnavailable) {
		t.Errorf("missing path err=%v", err)
	}
	if _, err := NewHostMonitor(0); err == nil {
		t.Error("zero history should fail")
	}
}

func TestHostMonitorSampleAndForecast(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("host sensor requires linux")
	}
	h, err := NewHostMonitor(32)
	if err != nil {
		t.Skipf("host sensor unavailable: %v", err)
	}
	if _, err := h.Forecast(); err == nil {
		t.Error("forecast before sampling should fail")
	}
	for i := 0; i < 10; i++ {
		v, err := h.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 || v > 1 {
			t.Fatalf("availability %g outside (0,1]", v)
		}
	}
	if h.Len() != 10 {
		t.Errorf("history len=%d", h.Len())
	}
	f, err := h.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if f.Value <= 0 || f.Value > 1 {
		t.Errorf("forecast=%g", f.Value)
	}
	sv := f.Stochastic()
	if sv.Spread < 0 {
		t.Errorf("spread=%g", sv.Spread)
	}
}

func TestHostMonitorFakeLoadavg(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("host sensor requires linux")
	}
	// Drive the monitor with a synthetic loadavg file to make the
	// conversion deterministic.
	dir := t.TempDir()
	p := filepath.Join(dir, "loadavg")
	if err := os.WriteFile(p, []byte("1.00 0 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := newHostMonitor(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	v, err := h.Sample()
	if err != nil {
		t.Fatal(err)
	}
	// ncpu/(1+1) clamped to 1.
	want := float64(runtime.NumCPU()) / 2
	if want > 1 {
		want = 1
	}
	if v != want {
		t.Errorf("avail=%g want %g", v, want)
	}
}
