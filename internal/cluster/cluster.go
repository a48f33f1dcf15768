// Package cluster defines the hardware model of the reproduction: machines
// with dedicated compute rates, links with dedicated bandwidth and latency,
// and the two production platforms of the paper's evaluation:
//
//	Platform 1: two Sparc-2s, a Sparc-5, and a Sparc-10 on 10 Mbit ethernet
//	Platform 2: a Sparc-5, a Sparc-10, and two UltraSparcs on 10 Mbit ethernet
//
// Dedicated rates are calibrated to circa-1997 relative SPEC performance
// (Sparc-2 = 1x); the absolute scale only shifts every runtime by a common
// factor and does not affect any of the paper's comparative claims.
package cluster

import (
	"errors"
	"fmt"
)

// Machine is one workstation.
type Machine struct {
	Name string
	// ElemRate is the dedicated compute rate in SOR element-updates per
	// second (five-point stencil update incl. loop overhead).
	ElemRate float64
	// MemoryMB bounds the problem size that fits in core; the paper's
	// Figure 9 holds "for problem sizes which fit within main memory".
	MemoryMB float64
}

// Validate checks the machine definition.
func (m Machine) Validate() error {
	if m.Name == "" {
		return errors.New("cluster: machine needs a name")
	}
	if !(m.ElemRate > 0) {
		return fmt.Errorf("cluster: machine %s needs a positive ElemRate", m.Name)
	}
	if !(m.MemoryMB > 0) {
		return fmt.Errorf("cluster: machine %s needs positive memory", m.Name)
	}
	return nil
}

// Link is a point-to-point channel between two machines. On a shared
// ethernet every pair sees the same dedicated bandwidth.
type Link struct {
	// DedBW is the dedicated bandwidth in bytes per second.
	DedBW float64
	// Latency is the per-message latency in seconds.
	Latency float64
}

// Validate checks the link definition.
func (l Link) Validate() error {
	if !(l.DedBW > 0) {
		return errors.New("cluster: link needs positive bandwidth")
	}
	if l.Latency < 0 {
		return errors.New("cluster: negative latency")
	}
	return nil
}

// Platform is a set of machines on one shared link.
type Platform struct {
	Name     string
	Machines []Machine
	link     Link
}

// NewPlatform builds a platform where every machine pair is connected by
// the same shared link (the paper's 10 Mbit ethernet topology).
func NewPlatform(name string, machines []Machine, shared Link) (*Platform, error) {
	if len(machines) == 0 {
		return nil, errors.New("cluster: platform needs machines")
	}
	if err := shared.Validate(); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, m := range machines {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("cluster: duplicate machine name %q", m.Name)
		}
		seen[m.Name] = true
	}
	return &Platform{Name: name, Machines: append([]Machine(nil), machines...), link: shared}, nil
}

// Size returns the number of machines.
func (p *Platform) Size() int { return len(p.Machines) }

// Machine returns machine i.
func (p *Platform) Machine(i int) Machine { return p.Machines[i] }

// Link returns the link from machine i to machine j; i and j must differ.
func (p *Platform) Link(i, j int) (Link, error) {
	if i < 0 || j < 0 || i >= p.Size() || j >= p.Size() {
		return Link{}, fmt.Errorf("cluster: link index (%d,%d) out of range", i, j)
	}
	if i == j {
		return Link{}, errors.New("cluster: no self link")
	}
	return p.link, nil
}

// Circa-1997 machine catalog. ElemRate is element updates per second for
// the red-black stencil kernel, scaled from relative integer/FP performance
// with Sparc-2 = 1x ~= 0.5 M elements/s.
const sparc2Rate = 0.5e6

// Sparc2 returns a Sparc-2 class machine.
func Sparc2(name string) Machine {
	return Machine{Name: name, ElemRate: sparc2Rate, MemoryMB: 32}
}

// Sparc5 returns a Sparc-5 class machine (~2.5x a Sparc-2).
func Sparc5(name string) Machine {
	return Machine{Name: name, ElemRate: 2.5 * sparc2Rate, MemoryMB: 64}
}

// Sparc10 returns a Sparc-10 class machine (~3.5x a Sparc-2).
func Sparc10(name string) Machine {
	return Machine{Name: name, ElemRate: 3.5 * sparc2Rate, MemoryMB: 128}
}

// UltraSparc returns an UltraSparc class machine (~8x a Sparc-2).
func UltraSparc(name string) Machine {
	return Machine{Name: name, ElemRate: 8 * sparc2Rate, MemoryMB: 256}
}

// Ethernet10Mbit returns the paper's shared 10 Mbit/s ethernet link:
// 1.25 MB/s dedicated bandwidth, 1 ms latency.
func Ethernet10Mbit() Link {
	return Link{DedBW: 1.25e6, Latency: 1e-3}
}

// Platform1 returns the paper's first platform: two Sparc-2s, a Sparc-5,
// and a Sparc-10 on shared 10 Mbit ethernet (§3.1).
func Platform1() *Platform {
	p, err := NewPlatform("platform1",
		[]Machine{
			Sparc2("sparc2-a"),
			Sparc2("sparc2-b"),
			Sparc5("sparc5"),
			Sparc10("sparc10"),
		},
		Ethernet10Mbit(),
	)
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return p
}

// Platform2 returns the paper's second platform: a Sparc-5, a Sparc-10,
// and two UltraSparcs on shared 10 Mbit ethernet (§3.2).
func Platform2() *Platform {
	p, err := NewPlatform("platform2",
		[]Machine{
			Sparc5("sparc5"),
			Sparc10("sparc10"),
			UltraSparc("ultra-a"),
			UltraSparc("ultra-b"),
		},
		Ethernet10Mbit(),
	)
	if err != nil {
		panic(err)
	}
	return p
}

// TwoMachineExample returns the abstract two-machine system of the paper's
// §1.2 example: machine A takes 10 s per unit of work dedicated, machine B
// 5 s. Unit work is normalized to A's rate so ElemRate is expressed in
// units-of-work per 10 seconds.
func TwoMachineExample() *Platform {
	p, err := NewPlatform("two-machine",
		[]Machine{
			{Name: "A", ElemRate: 0.1, MemoryMB: 64}, // 10 s per unit
			{Name: "B", ElemRate: 0.2, MemoryMB: 64}, // 5 s per unit
		},
		Ethernet10Mbit(),
	)
	if err != nil {
		panic(err)
	}
	return p
}
