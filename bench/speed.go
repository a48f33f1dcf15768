package main

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Every timing figure of the end-to-end run is reported at reference speed:
// multiplied by how fast this machine was while the figure was measured, as
// a fixed kernel measured it. The reason is the reference box. It is a
// 2-vCPU guest on a shared host, and what its two CPUs deliver together
// when both are busy changes by up to 1.6x, in regimes that last from a
// second to a quarter of an hour, while one busy thread alone runs at the
// same speed all day. Every workload keeps both CPUs busy, so two sets of
// runs of an unchanged tree, back to back, disagreed by 20-50% in their
// medians - more than any bound a regression check could use.
//
// Because a regime can be as short as a second, the kernel is run where the
// work is: at every barrier of a measured phase, with both connections
// parked and the daemon idle, and each slice of a phase is scaled by the
// samples on either side of it (README.md, "Reference speed", has the
// figures).
//
// The kernel is the kind of work the daemon and the generator do - sorting,
// hashing into a map, formatting and parsing numbers, decoding and encoding
// JSON - run on as many goroutines as the generator has connections, so it
// loads the machine the way the workloads do. It uses only the standard
// library: no change to the repository moves it. (The arithmetic kernel
// behind machine.calib_ms does not see the slow spells at all, and the same
// arithmetic on two threads over-reacts to them.)

// referenceKernelMS is the kernel's time on the reference box at its best.
// A run during which the kernel took this long reports what it measured.
const referenceKernelMS = 20.0

// kernelRounds sizes one sample of the kernel: long enough to time, short
// beside the few hundred ms of work between two barriers.
const kernelRounds = 15

var kernelPayload = []byte(`{"platform":"tenant-0003","time":2615,"id":1234,"mean":41.25,"spread":6.5,"lo":34.75,"hi":47.75,` +
	`"raw_spread":5.25,"partition_rows":[100,100,100,98],"dist":{"levels":[0.025,0.05,0.25,0.5,0.75,0.95,0.975],` +
	`"raw":[30.1,32.2,38.3,41.4,44.5,50.6,52.7],"calibrated":[29.1,31.2,37.3,41.4,45.5,51.6,53.7],` +
	`"intervals":[{"level":0.5,"lo":37.3,"hi":45.5},{"level":0.95,"lo":29.1,"hi":53.7}]}}`)

// serverishWork is one round of the kernel: the same keys, and so the same
// work, every time. It returns a value that depends on all of it.
func serverishWork(keys []uint64, buf []byte) int {
	r := newRNG(fnv64("serverish-work"))
	keys = keys[:0]
	for i := 0; i < 4096; i++ {
		keys = append(keys, r.next())
	}
	slices.Sort(keys)
	m := make(map[uint64]int, len(keys))
	for i, k := range keys {
		m[k] = i
	}
	sum := 0
	for _, k := range keys {
		sum += m[k^1] + m[k]
	}
	for i := 0; i < 512; i++ {
		buf = strconv.AppendFloat(buf[:0], float64(keys[i]>>11)/(1<<40), 'g', -1, 64)
		f, _ := strconv.ParseFloat(string(buf), 64) // the text was just formatted from a float
		sum += int(f)
	}
	var p prediction
	for i := 0; i < 48; i++ {
		_ = json.Unmarshal(kernelPayload, &p) // a constant, valid document
		out, _ := json.Marshal(&p)            // a plain struct of numbers and strings
		sum += len(out)
	}
	return sum
}

// speedProbe collects the kernel's samples over one run.
type speedProbe struct {
	samples []float64 // ms
	sink    int
}

// sample runs the kernel once on every connection's goroutine at the same
// time and records and returns the wall time in ms until all have finished.
// The daemon is idle when it is called: around set-up and at barriers.
func (p *speedProbe) sample() float64 {
	var wg sync.WaitGroup
	var sums [conns]int
	t0 := time.Now()
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			keys, buf := make([]uint64, 0, 4096), make([]byte, 0, 32)
			for i := 0; i < kernelRounds; i++ {
				sums[k] += serverishWork(keys, buf)
			}
		}(k)
	}
	wg.Wait()
	took := ms(time.Since(t0))
	p.samples = append(p.samples, took)
	for _, s := range sums {
		p.sink += s
	}
	return took
}

// speedOf turns samples of the kernel into a machine speed relative to the
// reference box at its best: 1 there, below 1 on a slower machine or during
// a slow spell. The mean, because the samples bracket the stretch of work
// they scale: its speed is work over time, and time adds.
func speedOf(samples ...float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return referenceKernelMS / mean(samples)
}
