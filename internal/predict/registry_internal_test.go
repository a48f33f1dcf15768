package predict

import (
	"fmt"
	"testing"
)

// TestRegistryShardedRouting exercises routing across many tenants: every
// registered name must resolve to its own service, and the name hash must
// spread a fleet's names evenly enough that no lock shard turns hot.
func TestRegistryShardedRouting(t *testing.T) {
	reg := NewRegistry()
	specs := FleetSpecs(64, 7)
	for _, spec := range specs {
		spec.Warmup = 0
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range specs {
		svc, err := reg.Lookup(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if svc.Name() != spec.Name {
			t.Fatalf("lookup %q routed to %q", spec.Name, svc.Name())
		}
	}
	if got := len(reg.Names()); got != 64 {
		t.Fatalf("Names lists %d, want 64", got)
	}

	const names = 1024
	perShard := make(map[*registryShard]int)
	for i := 0; i < names; i++ {
		perShard[reg.shardFor(fmt.Sprintf("tenant-%04d", i))]++
	}
	for _, n := range perShard {
		if n > 2*names/registryShards {
			t.Errorf("a shard holds %d of %d names, more than twice its share of %d (%d shards in use)",
				n, names, names/registryShards, len(perShard))
		}
	}
}
