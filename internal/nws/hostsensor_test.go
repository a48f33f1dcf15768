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

func TestHostSensorValidation(t *testing.T) {
	if runtime.GOOS != "linux" {
		if _, err := HostSensor(); !errors.Is(err, ErrHostSensorUnavailable) {
			t.Errorf("non-linux err=%v", err)
		}
		t.Skip("host sensor requires linux")
	}
	if _, err := hostSensor("/nonexistent/loadavg"); !errors.Is(err, ErrHostSensorUnavailable) {
		t.Errorf("missing path err=%v", err)
	}
}

// TestHostSensorMonitor drives the real host sensor through a Monitor, the
// way cmd/hostmon does: one sample per virtual second.
func TestHostSensorMonitor(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("host sensor requires linux")
	}
	s, err := HostSensor()
	if err != nil {
		t.Skipf("host sensor unavailable: %v", err)
	}
	m, err := NewSensorMonitor(s, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(); err == nil {
		t.Error("forecast before sampling should fail")
	}
	for i := 0; i < 10; i++ {
		m.RunUntil(float64(i))
		p, ok := m.Last()
		if !ok || p.V <= 0 || p.V > 1 {
			t.Fatalf("sample %d: availability %g (ok %v) outside (0,1]", i, p.V, ok)
		}
	}
	if m.Len() != 10 || m.Gaps().Missed != 0 {
		t.Errorf("history len=%d, missed=%d", m.Len(), m.Gaps().Missed)
	}
	f, err := m.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if f.Value <= 0 || f.Value > 1 {
		t.Errorf("forecast=%g", f.Value)
	}
	if sv := f.Stochastic(); sv.Spread < 0 {
		t.Errorf("spread=%g", sv.Spread)
	}
}

// TestHostSensorFakeLoadavg: a synthetic loadavg file makes the conversion
// deterministic, and a read that fails is a gap the monitor records.
func TestHostSensorFakeLoadavg(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("host sensor requires linux")
	}
	dir := t.TempDir()
	p := filepath.Join(dir, "loadavg")
	if err := os.WriteFile(p, []byte("1.00 0 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := hostSensor(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSensorMonitor(s, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	m.RunUntil(0)
	// ncpu/(1+1) clamped to 1.
	want := float64(runtime.NumCPU()) / 2
	if want > 1 {
		want = 1
	}
	if v, _ := m.Last(); v.V != want {
		t.Errorf("avail=%g want %g", v.V, want)
	}
	if err := os.WriteFile(p, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(1)
	if g := m.Gaps(); g.Missed != 1 || g.SensorErrors != 1 || m.Len() != 1 {
		t.Errorf("failed read: gaps %+v, history %d, want one sensor error and the first sample kept", g, m.Len())
	}
}
