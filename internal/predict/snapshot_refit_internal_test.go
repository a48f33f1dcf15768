package predict

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// betweenRaces reports whether a CPU monitor of svc holds a mixture fit
// made by a warm refit on the round just taken: FitObs, the round count a
// snapshot carries, at 16, 32 or 48 past a multiple of 64. The next refit of
// that monitor is one a restore has to schedule from the image alone. A
// background worker may still be taking the tenant's refits after its own
// step returned, so the monitors are read under the locks it takes.
func betweenRaces(svc *Service) bool {
	svc.clockMu.RLock()
	defer svc.clockMu.RUnlock()
	svc.monMu.Lock()
	defer svc.monMu.Unlock()
	for _, mon := range svc.cpu {
		st := mon.Tournament().ExportState()
		if len(st.FitModes) > 0 && st.FitObs%64 != 0 && st.FitObs%16 == 0 {
			return true
		}
	}
	return false
}

// TestSnapshotBetweenRacesRestoresBitIdentical: the mixture competitor
// refits warm between its races and races every 64th round, and which of the
// two a refit is comes from the fit's round count and modes alone — so a
// tenant cut at any round, between races included, restores to one that
// re-snapshots to the same bytes and serves the next 128 rounds (two races,
// six warm refits per monitor) exactly as the tenant that never stopped. On
// three seeds of the bursty platform under sensor drops, each run is cut
// eight times at random rounds, every other cut waiting for a round on
// which a monitor has just refitted warm.
func TestSnapshotBetweenRacesRestoresBitIdentical(t *testing.T) {
	const follow = 128
	qualified := 0
	for seed := int64(1); seed <= 3; seed++ {
		spec, err := SimulatedSpec(2, 40+seed)
		if err != nil {
			t.Fatal(err)
		}
		spec.Warmup, spec.History, spec.FaultSeed = 120, 256, seed
		spec.Faults = []FaultSpec{{Machine: 1, Drop: 0.1}, {Machine: 3, Drop: 0.05}}
		live := NewRegistry()
		if err := live.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		round := 0
		var pending []uint64
		// step drives one round on reg: a 5 s tick, a scalar and a
		// distribution-valued prediction, and the oldest pending outcome.
		step := func(reg *Registry, pending *[]uint64) []any {
			svc, err := reg.Lookup(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Advance(5); err != nil {
				t.Fatal(err)
			}
			var out []any
			for _, req := range []Request{
				{Platform: spec.Name, N: 200, Iterations: 9},
				{Platform: spec.Name, N: 120, Iterations: 6, Distribution: true},
			} {
				p, err := reg.Predict(req)
				out = append(out, p, err)
				if err == nil {
					*pending = append(*pending, p.ID)
				}
			}
			if len(*pending) > 3 {
				id := (*pending)[0]
				*pending = (*pending)[1:]
				drifted, err := reg.Observe(spec.Name, id, 10+math.Mod(float64(id)*0.37, 5))
				out = append(out, drifted, err, svc.Accuracy())
			}
			return out
		}
		for cut := 0; cut < 8; cut++ {
			wait := cut%2 == 1
			for gap := 1 + rng.Intn(48); gap > 0 || wait; gap-- {
				step(live, &pending)
				round++
				if svc, _ := live.Lookup(spec.Name); wait && gap <= 0 && betweenRaces(svc) {
					wait = false
				}
			}
			svc, err := live.Lookup(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			if betweenRaces(svc) {
				qualified++
			}
			var img bytes.Buffer
			if err := live.WriteSnapshot(&img); err != nil {
				t.Fatal(err)
			}
			restored, err := ReadSnapshot(bytes.NewReader(img.Bytes()), RegistryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := restored.WriteSnapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img.Bytes(), again.Bytes()) {
				t.Fatalf("seed %d round %d: the restored tenant re-snapshots to different bytes", seed, round)
			}
			fork := append([]uint64(nil), pending...)
			for k := 0; k < follow; k++ {
				want, got := step(live, &pending), step(restored, &fork)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d: cut at round %d, round %d after it diverges:\n%+v\nvs\n%+v", seed, round, k+1, got, want)
				}
			}
			round += follow
			var a, b bytes.Buffer
			if err := live.WriteSnapshot(&a); err != nil {
				t.Fatal(err)
			}
			if err := restored.WriteSnapshot(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("seed %d: cut at round %d, images differ %d rounds after it", seed, round-follow, follow)
			}
		}
	}
	if qualified < 12 {
		t.Fatalf("%d cuts fell between races on a fresh warm refit, want at least 12", qualified)
	}
}
