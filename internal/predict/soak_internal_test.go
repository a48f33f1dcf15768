package predict

import (
	"runtime"
	"testing"
)

// TestHeapFlatWithAge is the soak test: a serving tenant advanced in 5 s
// steps holds as much heap at 48 virtual hours as at 24. Its load processes
// keep a fixed tail of ticks, not every tick since time zero, which at 48 h
// would be about twice the heap of 24 h.
func TestHeapFlatWithAge(t *testing.T) {
	svc := simulatedService(t, 2, 1)
	if _, err := svc.Predict(Request{N: 400, Iterations: 10}); err != nil {
		t.Fatal(err)
	}
	heapAt := func(hours float64) uint64 {
		for svc.Now() < hours*3600 {
			if err := svc.Advance(5); err != nil {
				t.Fatal(err)
			}
		}
		WaitRefits()
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	h24 := heapAt(24)
	h48 := heapAt(48)
	runtime.KeepAlive(svc)
	t.Logf("heap %.2f MB at 24 h, %.2f MB at 48 h", float64(h24)/1e6, float64(h48)/1e6)
	if float64(h48) > 1.1*float64(h24) {
		t.Errorf("heap grew with age: %d bytes at 24 h, %d at 48 h", h24, h48)
	}
}
