package predict_test

import (
	"testing"
)

// TestObserveHeavyTrafficNeverEvictsLive is the end-to-end regression for
// the ledger eviction bug: under an observed-heavy workload (every
// prediction observed promptly), an old still-unobserved prediction must
// survive thousands of round-trips — eviction may only trigger once 4096
// predictions are *truly* outstanding, not once 4096 ledger slots (live or
// dead) have ever existed.
func TestObserveHeavyTrafficNeverEvictsLive(t *testing.T) {
	svc := burstyService(t, 3, 60)
	req := baseRequest()
	first, err := svc.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	// More round-trips than the retention bound; all observed immediately,
	// so true outstanding never exceeds 2.
	for i := 0; i < 4200; i++ {
		p, err := svc.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Observe(p.ID, p.Value.Mean+1); err != nil {
			t.Fatalf("round-trip %d: %v", i, err)
		}
	}
	if got := svc.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d, want 1 (only the first prediction unobserved)", got)
	}
	if _, err := svc.Observe(first.ID, first.Value.Mean+1); err != nil {
		t.Fatalf("first prediction was evicted under observed-heavy traffic: %v", err)
	}
}
