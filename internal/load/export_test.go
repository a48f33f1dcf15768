package load

// FactoryOf returns the generator factory s was built from, so an external
// test can build an unbounded reference memo of the same process.
func FactoryOf(s *Sequence) func() func(i int, prev float64) float64 { return s.factory }

// KeptOf returns how many ticks' slots s has allocated.
func KeptOf(s *Sequence) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}
