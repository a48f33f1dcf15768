package predict

import "testing"

// simulatedService builds SimulatedSpec(platform, seed)'s service, clock at
// zero.
func simulatedService(t testing.TB, platform int, seed int64) *Service {
	t.Helper()
	spec, err := SimulatedSpec(platform, seed)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewServiceFromSpec(&spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// DropTickCache turns s's tick cache off: from then on every request runs the
// whole pipeline over a frame of its own, and Readout reads the monitors anew.
// It is the reference the cached ≡ uncached tests hold the cache to — cached
// and uncached services are bit-identical for the same seed and clock
// schedule, the cache only changing how often the (pure) pipeline runs.
func DropTickCache(s *Service) {
	s.clockMu.Lock()
	defer s.clockMu.Unlock()
	s.tick = nil
}

// servedFrame predicts req on s and returns the prediction with the size
// frame of the current tick it was served from, whose partition, bandwidth
// and reports the tests hold the served value and grid to. req carries no
// Partition, and its size is one the tick stores.
func servedFrame(t testing.TB, s *Service, req Request) (Prediction, *sizeFrame) {
	t.Helper()
	p, err := s.Predict(req)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	return p, s.tick.size(req)
}
