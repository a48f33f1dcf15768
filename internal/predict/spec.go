package predict

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"prodpred/internal/cluster"
	"prodpred/internal/faults"
	"prodpred/internal/load"
	"prodpred/internal/obs"
	"prodpred/internal/workload"
)

// PlatformSpec is the declarative, JSON-serializable description of one
// tenant platform: machines, link, load processes and fault schedules. It is everything needed to (re)build a Service —
// the registry instantiates cold specs lazily on first request, and the
// snapshot format embeds each platform's spec so restore can rebuild the
// static structure and import only dynamic state on top.
//
// Determinism contract: Build is a pure function of the spec, and every
// load process and fault decision it wires up is a pure function of
// (seed, virtual time). Two services built from equal specs and advanced
// through the same clock schedule are bit-identical.
type PlatformSpec struct {
	// Name is the platform (tenant) identifier requests route on.
	Name string `json:"name"`
	// Machines describes the compute nodes, in index order.
	Machines []MachineSpec `json:"machines"`
	// Link is the shared interconnect; nil means 10 Mbit shared ethernet
	// (the paper's platform interconnect).
	Link *LinkSpec `json:"link,omitempty"`
	// CPU holds one load spec per machine; empty means light load
	// everywhere. A single entry is broadcast to every machine; a broadcast
	// scenario entry gives machine i the scenario's machine entry i.
	CPU []workload.LoadSpec `json:"cpu,omitempty"`
	// Net is the network contention process; nil means a contention-free
	// (constant, unmonitored) network.
	Net *workload.LoadSpec `json:"net,omitempty"`
	// Seed is the platform's base random seed. Load specs with Seed 0
	// derive theirs from it (Seed + machine index; Seed + 999 for Net).
	Seed int64 `json:"seed"`
	// History is the monitor ring size (512 when 0).
	History int `json:"history,omitempty"`
	// Warmup is how many virtual seconds of measurements to take at
	// instantiation before the service answers its first request.
	Warmup float64 `json:"warmup,omitempty"`
	// FaultSeed seeds the fault injector when Faults is non-empty (Seed
	// when 0).
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// Faults holds per-machine sensor-fault schedules.
	Faults []FaultSpec `json:"faults,omitempty"`
}

// MachineSpec names one machine, either by catalog kind — "sparc2",
// "sparc5", "sparc10", "ultra" (the paper's benchmarked machine classes) —
// or by explicit rate/memory numbers when Kind is empty.
type MachineSpec struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind,omitempty"`
	ElemRate float64 `json:"elem_rate,omitempty"`
	MemoryMB float64 `json:"memory_mb,omitempty"`
}

func (m MachineSpec) build() (cluster.Machine, error) {
	switch m.Kind {
	case "sparc2":
		return cluster.Sparc2(m.Name), nil
	case "sparc5":
		return cluster.Sparc5(m.Name), nil
	case "sparc10":
		return cluster.Sparc10(m.Name), nil
	case "ultra":
		return cluster.UltraSparc(m.Name), nil
	case "":
		if !(m.ElemRate > 0) || !(m.MemoryMB > 0) {
			return cluster.Machine{}, fmt.Errorf("predict: machine %q needs a kind or positive elem_rate/memory_mb", m.Name)
		}
		return cluster.Machine{Name: m.Name, ElemRate: m.ElemRate, MemoryMB: m.MemoryMB}, nil
	default:
		return cluster.Machine{}, fmt.Errorf("predict: unknown machine kind %q", m.Kind)
	}
}

// LinkSpec describes the shared interconnect.
type LinkSpec struct {
	// DedBW is the dedicated bandwidth in bytes/s; Latency the one-way
	// latency in seconds.
	DedBW   float64 `json:"ded_bw"`
	Latency float64 `json:"latency,omitempty"`
}

// FaultSpec is one machine's sensor-fault schedule.
type FaultSpec struct {
	Machine     int          `json:"machine"`
	Drop        float64      `json:"drop,omitempty"`
	Transient   float64      `json:"transient,omitempty"`
	Spike       float64      `json:"spike,omitempty"`
	SpikeFactor float64      `json:"spike_factor,omitempty"`
	Outages     []OutageSpec `json:"outages,omitempty"`
}

// OutageSpec is one timed outage window, in virtual seconds.
type OutageSpec struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// MaxWarmup bounds a spec's warmup, in virtual seconds: one day. The
// warm-up samples every monitor once a period, on the first request for the
// tenant and under its build lock, so an unbounded one never answers.
const MaxWarmup = 86400

// Config materializes the spec into a service Config. It is side-effect
// free and deterministic; errors name the offending field.
func (ps *PlatformSpec) Config() (Config, error) {
	if ps.Name == "" {
		return Config{}, errors.New("predict: spec missing platform name")
	}
	if len(ps.Machines) < 2 {
		return Config{}, fmt.Errorf("predict: spec %q has %d machines (a platform needs at least 2)", ps.Name, len(ps.Machines))
	}
	if !(ps.Warmup >= 0 && ps.Warmup <= MaxWarmup) {
		return Config{}, fmt.Errorf("predict: spec %q warmup %g outside [0, %d]", ps.Name, ps.Warmup, MaxWarmup)
	}
	machines := make([]cluster.Machine, len(ps.Machines))
	for i, m := range ps.Machines {
		var err error
		if machines[i], err = m.build(); err != nil {
			return Config{}, fmt.Errorf("predict: spec %q machine %d: %w", ps.Name, i, err)
		}
	}
	link := cluster.Ethernet10Mbit()
	if ps.Link != nil {
		if !(ps.Link.DedBW > 0) {
			return Config{}, fmt.Errorf("predict: spec %q link bandwidth %g must be positive", ps.Name, ps.Link.DedBW)
		}
		link = cluster.Link{DedBW: ps.Link.DedBW, Latency: ps.Link.Latency}
	}
	plat, err := cluster.NewPlatform(ps.Name, machines, link)
	if err != nil {
		return Config{}, fmt.Errorf("predict: spec %q: %w", ps.Name, err)
	}
	cpuSpecs := ps.CPU
	switch len(cpuSpecs) {
	case 0:
		cpuSpecs = make([]workload.LoadSpec, len(machines))
		for i := range cpuSpecs {
			cpuSpecs[i] = workload.LoadSpec{Kind: "light"}
		}
	case 1:
		if len(machines) > 1 {
			one := cpuSpecs[0]
			cpuSpecs = make([]workload.LoadSpec, len(machines))
			for i := range cpuSpecs {
				cpuSpecs[i] = one
				// A broadcast scenario spreads its machine entries
				// across the platform instead of cloning entry Machine.
				if one.Kind == "scenario" && one.Machine == 0 {
					cpuSpecs[i].Machine = i
				}
			}
		}
	case len(machines):
	default:
		return Config{}, fmt.Errorf("predict: spec %q has %d cpu loads for %d machines (want 0, 1, or %d)",
			ps.Name, len(cpuSpecs), len(machines), len(machines))
	}
	cpu := make([]load.Process, len(machines))
	for i, ls := range cpuSpecs {
		if cpu[i], err = ls.Build(ps.Seed+int64(i), false); err != nil {
			return Config{}, fmt.Errorf("predict: spec %q cpu %d: %w", ps.Name, i, err)
		}
	}
	var net load.Process = load.NewConstant(1)
	if ps.Net != nil {
		if net, err = ps.Net.Build(ps.Seed+999, true); err != nil {
			return Config{}, fmt.Errorf("predict: spec %q net: %w", ps.Name, err)
		}
	}
	var injector *faults.Injector
	if len(ps.Faults) > 0 {
		faultSeed := ps.FaultSeed
		if faultSeed == 0 {
			faultSeed = ps.Seed
		}
		injector = faults.NewInjector(faultSeed)
		for _, f := range ps.Faults {
			if f.Machine < 0 || f.Machine >= len(machines) {
				return Config{}, fmt.Errorf("predict: spec %q fault machine %d out of range", ps.Name, f.Machine)
			}
			sched := faults.Schedule{
				DropProb:      f.Drop,
				TransientProb: f.Transient,
				SpikeProb:     f.Spike,
				SpikeFactor:   f.SpikeFactor,
			}
			for _, w := range f.Outages {
				sched.Outages = append(sched.Outages, faults.Window{Start: w.Start, End: w.End})
			}
			if err := injector.Set(f.Machine, sched); err != nil {
				return Config{}, fmt.Errorf("predict: spec %q fault machine %d: %w", ps.Name, f.Machine, err)
			}
		}
	}
	return Config{
		Platform: plat,
		CPU:      cpu,
		Net:      net,
		History:  ps.History,
		Injector: injector,
	}, nil
}

// Validate builds (and discards) the spec's Config, surfacing any spec
// error eagerly — the check RegisterSpec and the daemon's spec-file loader
// run so a typo fails at registration, not on the first request.
func (ps *PlatformSpec) Validate() error {
	_, err := ps.Config()
	return err
}

// clone returns a deep copy, so registered specs are immune to caller
// mutation.
func (ps *PlatformSpec) clone() *PlatformSpec {
	c := *ps
	c.Machines = append([]MachineSpec(nil), ps.Machines...)
	c.CPU = append([]workload.LoadSpec(nil), ps.CPU...)
	for i, ls := range c.CPU {
		c.CPU[i] = ls.Clone()
	}
	if ps.Link != nil {
		l := *ps.Link
		c.Link = &l
	}
	if ps.Net != nil {
		n := ps.Net.Clone()
		c.Net = &n
	}
	c.Faults = append([]FaultSpec(nil), ps.Faults...)
	for i, f := range c.Faults {
		c.Faults[i].Outages = append([]OutageSpec(nil), f.Outages...)
	}
	return &c
}

// NewServiceFromSpec builds a live Service from a spec — the one way to
// build one: materialize the Config, construct the service with the spec
// attached for the snapshot path, and run the spec's warmup. metrics may be
// nil.
func NewServiceFromSpec(spec *PlatformSpec, metrics *obs.Registry) (*Service, error) {
	svc, err := newService(spec, metrics)
	if err != nil {
		return nil, err
	}
	if spec.Warmup > 0 {
		if err := svc.Advance(spec.Warmup); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

// ParseSpecs decodes a JSON array of platform specs (the -specs file
// format) and validates each one.
func ParseSpecs(r io.Reader) ([]PlatformSpec, error) {
	var specs []PlatformSpec
	if err := decodeSpecJSON(r, &specs); err != nil {
		return nil, fmt.Errorf("predict: parsing specs: %w", err)
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("predict: spec %d: %w", i, err)
		}
	}
	return specs, nil
}

// decodeSpecJSON decodes spec JSON into v, refusing any key the spec types do
// not declare: a spec file or snapshot image naming a setting this build does
// not have is an error, not a platform quietly built under other settings.
func decodeSpecJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// SimulatedSpec returns the declarative spec for one of the paper's
// evaluation platforms under its calibrated production load: Platform 1
// with the center-mode load on the Sparc-2s and light load elsewhere
// (§3.1), or Platform 2 with the 4-modal bursty load on every machine
// (§3.2). Both run long-tailed ethernet contention on the shared link.
func SimulatedSpec(platform int, seed int64) (PlatformSpec, error) {
	switch platform {
	case 1:
		return PlatformSpec{
			Name: "platform1",
			Machines: []MachineSpec{
				{Name: "sparc2-a", Kind: "sparc2"},
				{Name: "sparc2-b", Kind: "sparc2"},
				{Name: "sparc5", Kind: "sparc5"},
				{Name: "sparc10", Kind: "sparc10"},
			},
			CPU: []workload.LoadSpec{
				{Kind: "platform1-center", Seed: seed + 0},
				{Kind: "platform1-center", Seed: seed + 1},
				{Kind: "light", Seed: seed + 2},
				{Kind: "light", Seed: seed + 3},
			},
			Net:  &workload.LoadSpec{Kind: "ethernet-contention", Seed: seed + 999},
			Seed: seed,
		}, nil
	case 2:
		spec := PlatformSpec{
			Name: "platform2",
			Machines: []MachineSpec{
				{Name: "sparc5", Kind: "sparc5"},
				{Name: "sparc10", Kind: "sparc10"},
				{Name: "ultra-a", Kind: "ultra"},
				{Name: "ultra-b", Kind: "ultra"},
			},
			Net:  &workload.LoadSpec{Kind: "ethernet-contention", Seed: seed + 999},
			Seed: seed,
		}
		for i := range spec.Machines {
			spec.CPU = append(spec.CPU, workload.LoadSpec{Kind: "platform2-bursty", Seed: seed + int64(i)*17})
		}
		return spec, nil
	default:
		return PlatformSpec{}, fmt.Errorf("predict: unknown platform %d (want 1 or 2)", platform)
	}
}

// FleetSpecs generates n tenant specs ("tenant-0000"...) for fleet-scale
// tests and benchmarks: a rotation of
// platform-1-shaped steady tenants, platform-2-shaped bursty tenants, and
// workload-scenario tenants cycling the scenario library, each with its
// own derived seed and a short warmup to keep lazy instantiation cheap.
func FleetSpecs(n int, seed int64) []PlatformSpec {
	scenarios := workload.Names()
	specs := make([]PlatformSpec, n)
	for i := range specs {
		tseed := seed + int64(i)*1013
		spec := PlatformSpec{
			Name:   fmt.Sprintf("tenant-%04d", i),
			Seed:   tseed,
			Warmup: 120,
			Net:    &workload.LoadSpec{Kind: "ethernet-contention"},
		}
		switch i % 3 {
		case 0:
			spec.Machines = []MachineSpec{
				{Name: "sparc2-a", Kind: "sparc2"},
				{Name: "sparc2-b", Kind: "sparc2"},
				{Name: "sparc5-a", Kind: "sparc5"},
				{Name: "sparc10-a", Kind: "sparc10"},
			}
			spec.CPU = []workload.LoadSpec{
				{Kind: "platform1-center"},
				{Kind: "platform1-center"},
				{Kind: "light"},
				{Kind: "light"},
			}
		case 1:
			spec.Machines = []MachineSpec{
				{Name: "sparc5-a", Kind: "sparc5"},
				{Name: "sparc10-a", Kind: "sparc10"},
				{Name: "ultra-a", Kind: "ultra"},
			}
			spec.CPU = []workload.LoadSpec{{Kind: "platform2-bursty"}}
		default:
			spec.Machines = []MachineSpec{
				{Name: "sparc5-a", Kind: "sparc5"},
				{Name: "sparc10-a", Kind: "sparc10"},
				{Name: "ultra-a", Kind: "ultra"},
				{Name: "ultra-b", Kind: "ultra"},
			}
			spec.CPU = []workload.LoadSpec{{Kind: "scenario", Scenario: scenarios[(i/3)%len(scenarios)]}}
		}
		specs[i] = spec
	}
	return specs
}
