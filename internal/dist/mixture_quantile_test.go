package dist

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// bisectQuantile is Mixture.Quantile as it stood before Newton steps went
// in, kept verbatim as the oracle FuzzMixtureQuantile compares it against:
// bisection on the mixture CDF inside the same bracket, to the same stop.
func bisectQuantile(m *Mixture, p float64) float64 {
	if p <= 0 {
		p = 1e-12
	}
	if p >= 1 {
		p = 1 - 1e-12
	}
	lo, hi := quantileBracket(m)
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if m.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-12*(1+math.Abs(hi)) {
			break
		}
	}
	return (lo + hi) / 2
}

// quantileBracket is the bracket both searches start from, as the
// bisection worked it out on every call: the span of the components' 1e-9
// and 1-1e-9 quantiles, or 20 standard deviations either side of the mean
// when that is not a finite interval.
func quantileBracket(m *Mixture) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, c := range m.components {
		lo = math.Min(lo, c.Quantile(1e-9))
		hi = math.Max(hi, c.Quantile(1-1e-9))
	}
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) || !(hi > lo) {
		mu := m.Mean()
		sd := math.Sqrt(m.Variance())
		if sd == 0 || math.IsNaN(sd) {
			sd = math.Abs(mu) + 1
		}
		lo, hi = mu-20*sd, mu+20*sd
	}
	return lo, hi
}

// stopWidth is the width at which both searches stop: each answers the
// midpoint of a bracket this wide around the CDF's crossing of p.
func stopWidth(x float64) float64 { return 1e-12 * (1 + math.Abs(x)) }

// fuzzMixture reads a mixture off fuzz bytes: the first byte picks k in 1..4
// and a scale of 1, 1e3 or 1e6 for the means, then two bytes each for a
// component's mean (anywhere in [0, scale], so at 1e6 the PDF underflows
// between modes), sigma (log-uniform on [1e-6, 1e6]) and weight
// (log-uniform on [1e-8, 1]); a last two bytes, if there, are one more p.
func fuzzMixture(data []byte) (m *Mixture, ps []float64, ok bool) {
	if len(data) < 7 {
		return nil, nil, false
	}
	k := 1 + int(data[0])%4
	scale := []float64{1, 1e3, 1e6}[int(data[0]/4)%3]
	data = data[1:]
	u := func() float64 {
		v := float64(binary.LittleEndian.Uint16(data)) / 65535
		data = data[2:]
		return v
	}
	var comps []Distribution
	var ws []float64
	for len(comps) < k && len(data) >= 6 {
		comps = append(comps, Normal{Mu: scale * u(), Sigma: math.Pow(10, -6+12*u())})
		ws = append(ws, math.Pow(10, -8+8*u()))
	}
	m, err := NewMixture(comps, ws)
	if err != nil {
		return nil, nil, false
	}
	ps = []float64{0, 1e-12, 2e-12, 1e-9, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.975, 1 - 1e-9, 1 - 2e-12, 1 - 1e-12, 1}
	if len(data) >= 2 {
		ps = append(ps, u())
	}
	sort.Float64s(ps)
	return m, ps, true
}

// FuzzMixtureQuantile holds the Newton search to the bisection it replaced:
// on any mixture of up to four normals and at any p, clamps included, the
// answer lies in the bracket, is monotone in p, and is within 1e-9 of the
// bracket's width of the bisection's answer. Both stop on a bracket
// stopWidth wide, so "monotone" and "within" allow that width on top: where
// the whole bracket is narrower than that (a mode at 1e6 with sigma 1e-6),
// neither search resolves the quantile any closer.
func FuzzMixtureQuantile(f *testing.F) {
	seed := func(head byte, comps ...[3]uint16) {
		data := []byte{head}
		for _, c := range comps {
			for _, v := range c {
				data = binary.LittleEndian.AppendUint16(data, v)
			}
		}
		f.Add(data)
	}
	// A load mixture at unit scale; modes at the ends of 1e6 with sigma 1e-6
	// (the PDF underflows everywhere between them); a 1e-8 weight beside a
	// unit one; one component.
	seed(2, [3]uint16{21000, 14000, 60000}, [3]uint16{32000, 16000, 60000}, [3]uint16{61000, 12000, 65535})
	seed(9, [3]uint16{0, 0, 65535}, [3]uint16{65535, 0, 65535})
	seed(5, [3]uint16{30000, 30000, 0}, [3]uint16{40000, 30000, 65535})
	seed(0, [3]uint16{50000, 30000, 30000})
	// Two modes at one mean, sigmas 0.43 and 3.6e-4: at p = 1-1e-9 the CDF
	// reads p exactly along a stretch 1.4e-6 wide, where a tangent step is
	// zero and only bisection finds the stretch's left end.
	f.Add([]byte("1000x00000000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ps, ok := fuzzMixture(data)
		if !ok {
			return
		}
		lo, hi := quantileBracket(m)
		if lo != m.lo || hi != m.hi {
			t.Fatalf("NewMixture bracketed [%v, %v], the per-call bracket is [%v, %v]", m.lo, m.hi, lo, hi)
		}
		prev := math.Inf(-1)
		for _, p := range ps {
			got, want := m.Quantile(p), bisectQuantile(m, p)
			if !(got >= lo && got <= hi) {
				t.Fatalf("p=%g: %v outside the bracket [%v, %v]", p, got, lo, hi)
			}
			if got < prev-stopWidth(got) {
				t.Fatalf("p=%g: %v below the quantile %v of a lower p", p, got, prev)
			}
			if d := math.Abs(got - want); d > 1e-9*(hi-lo)+stopWidth(want) {
				t.Fatalf("p=%g: %v, bisection %v (%.3g apart, bracket [%v, %v])", p, got, want, d, lo, hi)
			}
			prev = got
		}
	})
}

// TestMixtureQuantileTakesFewerSteps: on the nine levels the NWS mixture
// forecaster tabulates, of a four-mode load mixture, the Newton search
// evaluates the CDF a quarter as often as the bisection, or less, and lands
// within the stop width of it.
func TestMixtureQuantileTakesFewerSteps(t *testing.T) {
	var calls int
	counted := func(n Normal) Distribution { return countingNormal{n, &calls} }
	m, err := NewMixture([]Distribution{
		counted(Normal{Mu: 0.25, Sigma: 0.03}), counted(Normal{Mu: 0.45, Sigma: 0.04}),
		counted(Normal{Mu: 0.68, Sigma: 0.04}), counted(Normal{Mu: 0.90, Sigma: 0.03}),
	}, []float64{0.2, 0.3, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var newton, bisect int
	for _, p := range []float64{0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.975} {
		calls = 0
		got := m.Quantile(p)
		newton += calls
		calls = 0
		want := bisectQuantile(m, p)
		bisect += calls
		if math.Abs(got-want) > stopWidth(want) {
			t.Errorf("p=%g: %v, bisection %v", p, got, want)
		}
	}
	t.Logf("component CDF evaluations over the nine levels: Newton %d, bisection %d", newton, bisect)
	if 4*newton > bisect {
		t.Errorf("Newton evaluated component CDFs %d times, bisection %d", newton, bisect)
	}
}

// countingNormal counts its CDF evaluations.
type countingNormal struct {
	Normal
	calls *int
}

func (c countingNormal) CDF(x float64) float64 { *c.calls++; return c.Normal.CDF(x) }
