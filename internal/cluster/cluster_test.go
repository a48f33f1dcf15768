package cluster

import (
	"testing"
)

func TestMachineValidate(t *testing.T) {
	good := Machine{Name: "m", ElemRate: 1, MemoryMB: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good machine: %v", err)
	}
	bad := []Machine{
		{Name: "", ElemRate: 1, MemoryMB: 1},
		{Name: "m", ElemRate: 0, MemoryMB: 1},
		{Name: "m", ElemRate: -1, MemoryMB: 1},
		{Name: "m", ElemRate: 1, MemoryMB: 0},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("machine %+v should fail validation", m)
		}
	}
}

func TestLinkValidate(t *testing.T) {
	if err := Ethernet10Mbit().Validate(); err != nil {
		t.Errorf("ethernet link: %v", err)
	}
	if err := (Link{DedBW: 0, Latency: 0}).Validate(); err == nil {
		t.Error("zero bandwidth should fail")
	}
	if err := (Link{DedBW: 1, Latency: -1}).Validate(); err == nil {
		t.Error("negative latency should fail")
	}
}

func TestNewPlatformValidation(t *testing.T) {
	link := Ethernet10Mbit()
	if _, err := NewPlatform("p", nil, link); err == nil {
		t.Error("no machines should fail")
	}
	if _, err := NewPlatform("p", []Machine{Sparc2("a"), Sparc2("a")}, link); err == nil {
		t.Error("duplicate names should fail")
	}
	if _, err := NewPlatform("p", []Machine{{Name: "x"}}, link); err == nil {
		t.Error("invalid machine should fail")
	}
	if _, err := NewPlatform("p", []Machine{Sparc2("a")}, Link{}); err == nil {
		t.Error("invalid link should fail")
	}
}

func TestPlatformAccessors(t *testing.T) {
	p := Platform1()
	if p.Size() != 4 {
		t.Fatalf("Size=%d", p.Size())
	}
	if p.Machine(0).Name != "sparc2-a" {
		t.Errorf("Machine(0)=%s", p.Machine(0).Name)
	}
	l, err := p.Link(0, 3)
	if err != nil || l.DedBW != 1.25e6 {
		t.Errorf("Link=%+v err=%v", l, err)
	}
	if _, err := p.Link(0, 0); err == nil {
		t.Error("self link should fail")
	}
	if _, err := p.Link(-1, 2); err == nil {
		t.Error("out of range should fail")
	}
	if _, err := p.Link(0, 9); err == nil {
		t.Error("out of range should fail")
	}
}

func TestCatalogRelativeSpeeds(t *testing.T) {
	s2 := Sparc2("a").ElemRate
	if Sparc5("b").ElemRate <= s2 || Sparc10("c").ElemRate <= Sparc5("b").ElemRate ||
		UltraSparc("d").ElemRate <= Sparc10("c").ElemRate {
		t.Error("catalog speeds should be strictly increasing")
	}
	if UltraSparc("d").ElemRate/s2 != 8 {
		t.Errorf("ultrasparc ratio=%g want 8", UltraSparc("d").ElemRate/s2)
	}
}

func TestTwoMachineExample(t *testing.T) {
	p := TwoMachineExample()
	if p.Size() != 2 {
		t.Fatalf("size=%d", p.Size())
	}
	a, b := p.Machine(0), p.Machine(1)
	// Dedicated unit-work times 10 s and 5 s (Table 1 row 1).
	if ta := 1 / a.ElemRate; ta != 10 {
		t.Errorf("A unit time=%g want 10", ta)
	}
	if tb := 1 / b.ElemRate; tb != 5 {
		t.Errorf("B unit time=%g want 5", tb)
	}
}

func TestPlatform2FasterInAggregate(t *testing.T) {
	sum := func(p *Platform) float64 {
		var s float64
		for _, m := range p.Machines {
			s += m.ElemRate
		}
		return s
	}
	if sum(Platform2()) <= sum(Platform1()) {
		t.Error("platform2 should have more aggregate compute")
	}
}
