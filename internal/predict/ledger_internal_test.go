package predict

import (
	"testing"

	"prodpred/internal/stochastic"
)

// TestLedgerDeadSlotsDoNotEvict is the unit-level regression for the
// eviction bug: Observe leaves dead slots behind in issuedOrder, and the
// old bound (on order length, not live count) let them evict a live
// prediction while only a handful were truly outstanding.
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
	orderLen, liveLen := len(svc.issuedOrder), len(svc.issued)
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
	// The compaction bound: dead slots may linger, but never dominate past
	// the amortization threshold.
	if orderLen > 2*liveLen+64 {
		t.Errorf("issuedOrder holds %d slots for %d live entries — dead slots are not being compacted", orderLen, liveLen)
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
	// Observe the three oldest: dead slots now sit at the front of the
	// order, ahead of the oldest live entry ids[3].
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

// TestLedgerOrderCompactionBound drives a sustained observed-heavy
// workload and asserts the order slice stays proportional to the live
// count — the backing-array retention fix.
func TestLedgerOrderCompactionBound(t *testing.T) {
	svc := simulatedService(t, 1, 1)
	v := stochastic.New(1, 0.1)
	svc.ledgerMu.Lock()
	for i := 0; i < 50000; i++ {
		id := svc.issueLocked(v, v, nil)
		if i%3 != 0 { // two of three round-trips observe immediately
			delete(svc.issued, id)
		}
	}
	orderLen, liveLen := len(svc.issuedOrder), len(svc.issued)
	svc.ledgerMu.Unlock()
	if orderLen > 2*liveLen+64 {
		t.Errorf("issuedOrder holds %d slots for %d live entries", orderLen, liveLen)
	}
}
