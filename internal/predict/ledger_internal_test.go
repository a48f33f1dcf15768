package predict

import (
	"testing"

	"prodpred/internal/stochastic"
)

// TestLedgerDeadSlotsDoNotEvict is the unit-level regression for the
// eviction bug: observed IDs leave dead slots in the issue order, and a
// bound on slots rather than live entries let them evict a live prediction
// while only a handful were truly outstanding.
func TestLedgerDeadSlotsDoNotEvict(t *testing.T) {
	svc := simulatedService(t, 1, 1)
	v := stochastic.New(1, 0.1)

	svc.ledgerMu.Lock()
	first := svc.issueLocked(v, v, nil)
	// maxOutstanding observed round-trips: each leaves a dead slot the old
	// accounting would have counted against the retention bound.
	for i := 0; i < maxOutstanding; i++ {
		id := svc.issueLocked(v, v, nil)
		delete(svc.issued, id) // what Observe does to the ledger
	}
	next := svc.issueLocked(v, v, nil)
	_, firstLive := svc.issued[first]
	_, nextLive := svc.issued[next]
	outstanding := len(svc.issued)
	svc.ledgerMu.Unlock()

	if !firstLive {
		t.Error("oldest live prediction was evicted while only 2 were outstanding")
	}
	if !nextLive {
		t.Error("freshly issued prediction missing from ledger")
	}
	if outstanding != 2 {
		t.Errorf("outstanding = %d, want 2", outstanding)
	}
}

// TestLedgerEvictsOldestLiveAtBound asserts the bound still holds on the
// true outstanding count: at maxOutstanding live entries, issuing one more
// evicts exactly the oldest live prediction.
func TestLedgerEvictsOldestLiveAtBound(t *testing.T) {
	svc := simulatedService(t, 1, 1)
	v := stochastic.New(1, 0.1)

	svc.ledgerMu.Lock()
	ids := make([]uint64, maxOutstanding)
	for i := range ids {
		ids[i] = svc.issueLocked(v, v, nil)
	}
	// Observe the three oldest: dead IDs now sit below the oldest live
	// entry ids[3].
	for _, id := range ids[:3] {
		delete(svc.issued, id)
	}
	// Refill to exactly maxOutstanding live, then push one over the bound.
	for i := 0; i < 3; i++ {
		svc.issueLocked(v, v, nil)
	}
	over := svc.issueLocked(v, v, nil)
	_, fourthLive := svc.issued[ids[3]]
	_, fifthLive := svc.issued[ids[4]]
	_, overLive := svc.issued[over]
	outstanding := len(svc.issued)
	svc.ledgerMu.Unlock()

	if fourthLive {
		t.Error("oldest live prediction should have been evicted at the bound (dead slots skipped)")
	}
	if !fifthLive || !overLive {
		t.Error("younger live predictions must survive the eviction")
	}
	if outstanding != maxOutstanding {
		t.Errorf("outstanding = %d, want %d", outstanding, maxOutstanding)
	}
}
