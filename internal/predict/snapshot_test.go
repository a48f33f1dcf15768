package predict_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"prodpred/internal/obs"
	"prodpred/internal/predict"
)

// snapshotSpec is the platform the snapshot tests drive: the bursty paper
// platform with sensor faults on machine 0, so the snapshot carries
// non-trivial gap counters, staleness, and fault-injector wiring.
func snapshotSpec(t *testing.T) predict.PlatformSpec {
	t.Helper()
	spec, err := predict.SimulatedSpec(2, 101)
	if err != nil {
		t.Fatal(err)
	}
	spec.Warmup = 600
	spec.History = 256
	spec.FaultSeed = 99
	spec.Faults = []predict.FaultSpec{
		{Machine: 0, Drop: 0.08, Transient: 0.05, Outages: []predict.OutageSpec{{Start: 620, End: 680}}},
	}
	return spec
}

// driveState carries the drive loop's continuation: the not-yet-observed
// prediction IDs and the round counter, so a run can be split at an
// arbitrary point and resumed identically on a restored registry.
type driveState struct {
	pending []uint64
	round   int
}

func (d *driveState) fork() *driveState {
	return &driveState{pending: append([]uint64(nil), d.pending...), round: d.round}
}

// drive runs a deterministic serving sequence — advance, two prediction
// shapes, observe the two oldest pending IDs with actuals derived from
// the prediction stream itself — and returns everything it saw. Two
// registries in identical states driven with identical states produce
// identical outputs.
func drive(t *testing.T, reg *predict.Registry, name string, rounds int, st *driveState) []predict.Prediction {
	t.Helper()
	req1 := baseRequest()
	req1.Platform = name
	req2 := req1
	req2.N = 200
	req2.Iterations = 9
	var out []predict.Prediction
	for i := 0; i < rounds; i++ {
		st.round++
		svc, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Advance(5); err != nil {
			t.Fatal(err)
		}
		for _, req := range []predict.Request{req1, req2} {
			p, err := reg.Predict(req)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
			st.pending = append(st.pending, p.ID)
		}
		for k := 0; k < 2 && len(st.pending) > 0; k++ {
			id := st.pending[0]
			st.pending = st.pending[1:]
			actual := 10 + math.Mod(float64(id)*0.37+float64(st.round)*0.11, 5)
			if _, err := reg.Observe(name, id, actual); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestSnapshotRestoreBitIdentical is the tentpole acceptance: kill a fleet
// mid-run, restore it from its snapshot, and every subsequent prediction,
// ID, and calibration snapshot is bit-identical to a run that never
// stopped.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	regA := predict.NewRegistry()
	if err := regA.RegisterSpec(snapshotSpec(t)); err != nil {
		t.Fatal(err)
	}
	st := &driveState{}
	drive(t, regA, "platform2", 40, st)

	var snap bytes.Buffer
	if err := regA.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	regB, err := predict.ReadSnapshot(bytes.NewReader(snap.Bytes()), predict.RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// A restored fleet re-snapshots to the same bytes: the image is a
	// fixed point of restore.
	var resnap bytes.Buffer
	if err := regB.WriteSnapshot(&resnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), resnap.Bytes()) {
		t.Fatal("restored registry re-snapshots to different bytes")
	}

	svcA, err := regA.Lookup("platform2")
	if err != nil {
		t.Fatal(err)
	}
	svcB, err := regB.Lookup("platform2")
	if err != nil {
		t.Fatal(err)
	}
	if svcA.Now() != svcB.Now() {
		t.Fatalf("clocks diverge after restore: %g vs %g", svcA.Now(), svcB.Now())
	}
	if svcA.Outstanding() != svcB.Outstanding() {
		t.Fatalf("ledgers diverge after restore: %d vs %d outstanding", svcA.Outstanding(), svcB.Outstanding())
	}
	if !reflect.DeepEqual(svcA.Accuracy(), svcB.Accuracy()) {
		t.Fatal("calibration state diverges after restore")
	}

	// The uninterrupted original and the restored copy continue in
	// lockstep through another mixed predict/observe/advance phase.
	stB := st.fork()
	outA := drive(t, regA, "platform2", 40, st)
	outB := drive(t, regB, "platform2", 40, stB)
	if !reflect.DeepEqual(outA, outB) {
		for i := range outA {
			if !reflect.DeepEqual(outA[i], outB[i]) {
				t.Fatalf("prediction %d diverges after restore:\n%+v\nvs\n%+v", i, outA[i], outB[i])
			}
		}
		t.Fatal("post-restore predictions diverge")
	}
	if !reflect.DeepEqual(svcA.Accuracy(), svcB.Accuracy()) {
		t.Fatal("calibration state diverges after continued run")
	}
	if !reflect.DeepEqual(svcA.Readout(), svcB.Readout()) {
		t.Fatal("machine reports diverge after continued run")
	}
}

// TestSnapshotDeterministic asserts snapshotting is a pure read: two
// snapshots of the same state are byte-identical and do not perturb the
// serving state.
func TestSnapshotDeterministic(t *testing.T) {
	reg := predict.NewRegistry()
	if err := reg.RegisterSpec(snapshotSpec(t)); err != nil {
		t.Fatal(err)
	}
	drive(t, reg, "platform2", 10, &driveState{})
	var a, b bytes.Buffer
	if err := reg.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("back-to-back snapshots differ")
	}
}

// TestSnapshotColdSpecs asserts never-instantiated tenants ride through a
// snapshot as cold specs: present, still lazy, still cold on the other
// side.
func TestSnapshotColdSpecs(t *testing.T) {
	reg := predict.NewRegistry()
	for _, spec := range predict.FleetSpecs(20, 3) {
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	// Instantiate exactly one tenant.
	if _, err := reg.Lookup("tenant-0004"); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := reg.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	back, err := predict.ReadSnapshot(&snap, predict.RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Names(), reg.Names()) {
		t.Fatalf("names diverge: %v vs %v", back.Names(), reg.Names())
	}
	if got := len(back.Services()); got != 1 {
		t.Fatalf("restored live services = %d, want 1 (cold specs must stay cold)", got)
	}
}

func TestReadSnapshotRejectsCorrupt(t *testing.T) {
	reg := predict.NewRegistry()
	if err := reg.RegisterSpec(predict.FleetSpecs(1, 2)[0]); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := reg.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	full := snap.Bytes()
	if _, err := predict.ReadSnapshot(bytes.NewReader([]byte("NOTASNAP")), predict.RegistryOptions{}); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := predict.ReadSnapshot(bytes.NewReader(full[:len(full)-3]), predict.RegistryOptions{}); err == nil {
		t.Error("truncated snapshot accepted")
	}
	mangled := append([]byte(nil), full...)
	mangled[6] = 0xFF // version field
	if _, err := predict.ReadSnapshot(bytes.NewReader(mangled), predict.RegistryOptions{}); err == nil {
		t.Error("wrong version accepted")
	}
	// The retired v1 format is refused by its header alone.
	if _, err := predict.ReadSnapshot(strings.NewReader("PPSNAP\x01\x00\x00\x00"), predict.RegistryOptions{}); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 1") {
		t.Errorf("v1 header: want unsupported-version error, got %v", err)
	}
	if _, err := predict.ReadSnapshot(bytes.NewReader(append(append([]byte(nil), full...), 0xAA)), predict.RegistryOptions{}); err == nil {
		t.Error("trailing bytes accepted")
	}

	// A live tenant's bandwidth monitors are listed in ascending probe size
	// (the order the service keeps and ticks them in); an image that lists
	// one twice, or out of order, is refused.
	for _, n := range []int{400, 800} {
		if _, err := reg.Predict(predict.Request{N: n, Iterations: 10}); err != nil {
			t.Fatal(err)
		}
	}
	snap.Reset()
	if err := reg.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	probe := func(n int) []byte {
		return binary.LittleEndian.AppendUint64(nil, math.Float64bits(float64(n-2)*8))
	}
	if bytes.Count(snap.Bytes(), probe(400)) != 1 || bytes.Count(snap.Bytes(), probe(800)) != 1 {
		t.Fatal("the image does not hold each probe size exactly once")
	}
	twice := bytes.Replace(snap.Bytes(), probe(800), probe(400), 1)
	if _, err := predict.ReadSnapshot(bytes.NewReader(twice), predict.RegistryOptions{}); err == nil || !strings.Contains(err.Error(), "does not ascend") {
		t.Errorf("a probe size listed twice: want a does-not-ascend error, got %v", err)
	}

	// An image from before monitors were built ahead of being listed can
	// hold a probe size with no monitor behind it (flag 0, no state). It is
	// accepted and the entry dropped: the next request for that size rebuilds
	// the monitor from virtual time, and the restored tenant answers and
	// re-snapshots bit for bit as the one that never lost it. The two
	// monitors' states are equally long (same clock, period and history), so
	// the distance between the probe sizes is one entry's length.
	at400, at800 := bytes.Index(snap.Bytes(), probe(400)), bytes.Index(snap.Bytes(), probe(800))
	unbuilt := slices.Concat(snap.Bytes()[:at800+8], []byte{0}, snap.Bytes()[2*at800-at400:])
	back, err := predict.ReadSnapshot(bytes.NewReader(unbuilt), predict.RegistryOptions{})
	if err != nil {
		t.Fatalf("an image with an unbuilt bandwidth entry: %v", err)
	}
	var images [2]bytes.Buffer
	var preds [2]predict.Prediction
	for i, r := range []*predict.Registry{reg, back} {
		if preds[i], err = r.Predict(predict.Request{N: 800, Iterations: 10}); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteSnapshot(&images[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(preds[0], preds[1]) {
		t.Errorf("prediction over the rebuilt monitor %+v, over the one that was never dropped %+v", preds[1], preds[0])
	}
	if !bytes.Equal(images[0].Bytes(), images[1].Bytes()) {
		t.Error("the tenant restored without its unbuilt entry re-snapshots to different bytes")
	}
}

// TestReadSnapshotRejectsUnknownSpecField: an image's embedded spec is decoded
// as strictly as a spec file. A key the spec types do not declare — a retired
// setting such as "period", or a misspelt one — refuses the image, cold or
// live, instead of restoring the platform under settings it did not name.
func TestReadSnapshotRejectsUnknownSpecField(t *testing.T) {
	spec := predict.FleetSpecs(1, 2)[0]
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, live := range []bool{false, true} {
		reg := predict.NewRegistry()
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
		if live {
			if _, err := reg.Lookup(spec.Name); err != nil {
				t.Fatal(err)
			}
		}
		var snap bytes.Buffer
		if err := reg.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		img := snap.Bytes()
		at := bytes.Index(img, specJSON)
		if at < 4 || binary.LittleEndian.Uint32(img[at-4:]) != uint32(len(specJSON)) {
			t.Fatalf("live %v: the image does not hold the spec as a length-prefixed field", live)
		}
		if _, err := predict.ReadSnapshot(bytes.NewReader(img), predict.RegistryOptions{}); err != nil {
			t.Fatalf("live %v: the untouched image: %v", live, err)
		}
		for _, key := range []string{`"period":10`, `"bogus_field":1`} {
			extra := append([]byte("{"+key+","), specJSON[1:]...)
			mangled := slices.Concat(img[:at-4], binary.LittleEndian.AppendUint32(nil, uint32(len(extra))), extra, img[at+len(specJSON):])
			if _, err := predict.ReadSnapshot(bytes.NewReader(mangled), predict.RegistryOptions{}); err == nil || !strings.Contains(err.Error(), "unknown field") {
				t.Errorf("live %v, spec with %s: want an unknown-field error, got %v", live, key, err)
			}
		}
	}
}

// recordingWriter keeps a copy of every Write it is handed and, when failAt
// is positive, fails the failAt-th call (counting from 1) and every later
// one.
type recordingWriter struct {
	writes [][]byte
	calls  int
	failAt int
}

var errRecordingFailed = errors.New("recording writer: write refused")

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.failAt > 0 && w.calls >= w.failAt {
		return 0, errRecordingFailed
	}
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// checkSections requires the writes to be the image's header and then one
// platform section each, in name order: every write after the first opens
// with the next platform's length-prefixed name, so none holds more than
// one section.
func checkSections(t *testing.T, writes [][]byte, names []string) {
	t.Helper()
	if len(writes) != 1+len(names) {
		t.Fatalf("%d writes for %d platforms, want the header and one per platform", len(writes), len(names))
	}
	if len(writes[0]) != len("PPSNAP")+8 {
		t.Fatalf("the first write is %d bytes, want the %d-byte header alone", len(writes[0]), len("PPSNAP")+8)
	}
	for i, name := range names {
		head := binary.LittleEndian.AppendUint32(nil, uint32(len(name)))
		if w := writes[i+1]; !bytes.HasPrefix(w, append(head, name...)) {
			t.Fatalf("write %d does not open platform %q's section", i+1, name)
		}
	}
}

// TestSnapshotStreamsSectionBySection: WriteSnapshot hands its writer the
// header and then one platform's section per Write, and the bytes it writes
// are the golden images a whole-image writer produced.
func TestSnapshotStreamsSectionBySection(t *testing.T) {
	golden, err := os.ReadFile("testdata/snapshot_v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"testdata/snapshot_v2.snap", "testdata/snapshot_v2_pr16.snap"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := predict.ReadSnapshot(bytes.NewReader(raw), predict.RegistryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var w recordingWriter
		if err := reg.WriteSnapshot(&w); err != nil {
			t.Fatal(err)
		}
		checkSections(t, w.writes, reg.Names())
		if !bytes.Equal(bytes.Join(w.writes, nil), golden) {
			t.Fatalf("%s: the streamed image is not the golden image", path)
		}
	}

	// A fleet of cold and live tenants streams the same way.
	reg := predict.NewRegistry()
	for _, spec := range predict.FleetSpecs(12, 5) {
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"tenant-0002", "tenant-0007", "tenant-0011"} {
		if _, err := reg.Predict(predict.Request{Platform: name, N: 200, Iterations: 10}); err != nil {
			t.Fatal(err)
		}
	}
	var w recordingWriter
	if err := reg.WriteSnapshot(&w); err != nil {
		t.Fatal(err)
	}
	checkSections(t, w.writes, reg.Names())
	if _, err := predict.ReadSnapshot(bytes.NewReader(bytes.Join(w.writes, nil)), predict.RegistryOptions{}); err != nil {
		t.Fatalf("the streamed fleet image does not restore: %v", err)
	}
}

// TestSnapshotWriteErrorStops: a writer that fails on its k-th call makes
// WriteSnapshot return that error, after exactly k calls.
func TestSnapshotWriteErrorStops(t *testing.T) {
	reg := predict.NewRegistry()
	for _, spec := range predict.FleetSpecs(4, 5) {
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Lookup("tenant-0001"); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 1+len(reg.Names()); k++ {
		w := recordingWriter{failAt: k}
		if err := reg.WriteSnapshot(&w); !errors.Is(err, errRecordingFailed) {
			t.Fatalf("failing on write %d: WriteSnapshot returned %v", k, err)
		}
		if w.calls != k {
			t.Fatalf("failing on write %d: WriteSnapshot wrote %d times", k, w.calls)
		}
	}
}

// TestReadSnapshotRefusesOversizedImage: an image file longer than
// MaxSnapshotBytes is refused, naming the limit, before it is read. The
// file is sparse and opened write-only, so a reader that tried to read it
// would fail on the read instead.
func TestReadSnapshotRefusesOversizedImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(predict.MaxSnapshotBytes + 1); err != nil {
		t.Skipf("no sparse file: %v", err)
	}
	f.Close()
	f, err = os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = predict.ReadSnapshot(f, predict.RegistryOptions{})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d-byte limit", predict.MaxSnapshotBytes)) {
		t.Fatalf("a %d-byte image: want an error naming the limit, got %v", predict.MaxSnapshotBytes+1, err)
	}
}

// TestReadSnapshotRefusesMovedClock: an image's monitors stand at its
// clock — WriteSnapshot catches every one up first, so each next sample is
// due within one period after the clock. An image whose clock was moved
// (past its monitors, behind them, negative or not finite), or whose monitor
// was moved off its clock, is refused: restored, the tenant's first step
// would sample the whole distance, about 2·10^11 samples for a clock of
// 10^12, under its clock lock.
func TestReadSnapshotRefusesMovedClock(t *testing.T) {
	spec, err := predict.SimulatedSpec(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Warmup = 120
	reg := predict.NewRegistry()
	if err := reg.RegisterSpec(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Predict(predict.Request{Platform: spec.Name, N: 400, Iterations: 10}); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := reg.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	img := snap.Bytes()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	f64 := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	// The live flag follows the spec, the clock follows the flag, and the
	// first CPU monitor's next sample follows the monitor count.
	clock := bytes.Index(img, specJSON) + len(specJSON) + 1
	if clock <= len(specJSON) || !bytes.Equal(img[clock:clock+8], f64(120)) || !bytes.Equal(img[clock+12:clock+20], f64(125)) {
		t.Fatal("the image does not hold clock 120 and a first next sample at 125 where expected")
	}
	// The bandwidth monitor's next sample follows its probe size and built flag.
	bw := bytes.Index(img, f64(float64(400-2)*8)) + 9
	if bw <= 9 || !bytes.Equal(img[bw:bw+8], f64(125)) {
		t.Fatal("the image does not hold the bandwidth monitor's next sample at 125 where expected")
	}
	patch := func(at int, v float64) []byte {
		return slices.Concat(img[:at], f64(v), img[at+8:])
	}
	if _, err := predict.ReadSnapshot(bytes.NewReader(patch(clock, 122)), predict.RegistryOptions{}); err != nil {
		t.Errorf("clock 122, next samples at 125: %v", err)
	}
	for _, tc := range []struct {
		name string
		at   int
		v    float64
	}{
		{"clock 1e12", clock, 1e12},
		{"clock at the next sample", clock, 125},
		{"clock a period behind", clock, 115},
		{"negative clock", clock, -5},
		{"infinite clock", clock, math.Inf(1)},
		{"NaN clock", clock, math.NaN()},
		{"CPU monitor behind", clock + 12, 0},
		{"bandwidth monitor behind", bw, 5},
		{"bandwidth monitor ahead", bw, 1e12},
	} {
		if _, err := predict.ReadSnapshot(bytes.NewReader(patch(tc.at, tc.v)), predict.RegistryOptions{}); err == nil {
			t.Errorf("%s: image accepted", tc.name)
		}
	}
}

// TestReadSnapshotRefusesWrappingNextID: IDs count up from an image's next
// ID, so one at 2^64−1 would wrap the counter and reissue the IDs of
// restored entries — the second prediction after the restore would land
// on restored entry 1. An image whose next ID is 2^63 or more is refused,
// naming it.
func TestReadSnapshotRefusesWrappingNextID(t *testing.T) {
	spec, err := predict.SimulatedSpec(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Warmup = 60
	reg := predict.NewRegistry()
	if err := reg.RegisterSpec(spec); err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Lookup(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := svc.Predict(baseRequest()); err != nil || p.ID != 1 {
		t.Fatalf("first prediction: id %d, %v", p.ID, err)
	}
	var snap bytes.Buffer
	if err := reg.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// The ledger section: next id 1, one entry, its id 1.
	section := func(next uint64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, next)
		b = binary.LittleEndian.AppendUint32(b, 1)
		return binary.LittleEndian.AppendUint64(b, 1)
	}
	if n := bytes.Count(snap.Bytes(), section(1)); n != 1 {
		t.Fatalf("the image holds the ledger section %d times, want once", n)
	}
	for _, next := range []uint64{math.MaxUint64, 1 << 63} {
		img := bytes.Replace(snap.Bytes(), section(1), section(next), 1)
		back, err := predict.ReadSnapshot(bytes.NewReader(img), predict.RegistryOptions{})
		if err != nil {
			if !strings.Contains(err.Error(), fmt.Sprint(next)) {
				t.Errorf("next id %d: the error does not name it: %v", next, err)
			}
			continue
		}
		restored := back.Services()[0]
		for i := 0; i < 2; i++ {
			if _, err := restored.Predict(baseRequest()); err != nil {
				t.Fatal(err)
			}
		}
		t.Errorf("next id %d restored; two predictions later %d are outstanding, want 3", next, restored.Outstanding())
	}
}

// FuzzReadSnapshot throws bytes at the snapshot reader, seeded with the two
// golden images. Whatever the bytes, ReadSnapshot must not panic; an image
// it accepts must write back an image that reads and writes again to the
// same bytes, so one round trip reaches a fixed point. Inputs that name a
// trace file are skipped, as in FuzzParseSpecs: a trace load reads the
// filesystem.
func FuzzReadSnapshot(f *testing.F) {
	for _, path := range []string{"testdata/snapshot_v2.snap", "testdata/snapshot_v2_pr16.snap"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.Contains(data, []byte("trace")) || bytes.Contains(data, []byte(`\u`)) {
			return
		}
		reg, err := predict.ReadSnapshot(bytes.NewReader(data), predict.RegistryOptions{})
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := reg.WriteSnapshot(&once); err != nil {
			t.Fatalf("an accepted image does not write back: %v", err)
		}
		again, err := predict.ReadSnapshot(bytes.NewReader(once.Bytes()), predict.RegistryOptions{})
		if err != nil {
			t.Fatalf("the written-back image is refused: %v", err)
		}
		var twice bytes.Buffer
		if err := again.WriteSnapshot(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("read → write is not a fixed point: %d bytes, then %d", once.Len(), twice.Len())
		}
	})
}

// gaugeLines renders metrics and returns the sample lines of the named
// families, in exposition order (by family name, then labels).
func gaugeLines(t *testing.T, metrics *obs.Registry, families ...string) []string {
	t.Helper()
	var b strings.Builder
	if err := metrics.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(b.String(), "\n") {
		for _, f := range families {
			if strings.HasPrefix(line, f+"{") {
				out = append(out, line)
			}
		}
	}
	return out
}

// counterLines is the sample line of each counter that reads a service's
// own state — predictions issued, outcomes observed, drift events and
// missed sensor samples — formatted from svc's state, in exposition order.
func counterLines(svc *predict.Service, lastID uint64) []string {
	r := svc.Readout()
	missed := r.BWGaps.Missed
	for _, rep := range r.Reports {
		missed += rep.Gaps.Missed
	}
	name := svc.Name()
	return []string{
		fmt.Sprintf(`%s{platform=%q} %d`, predict.MetricDriftEvents, name, svc.DriftCount()),
		fmt.Sprintf(`%s{platform=%q} %d`, predict.MetricFaultGapSamples, name, missed),
		fmt.Sprintf(`%s{platform=%q} %d`, predict.MetricObservations, name, svc.Accuracy().Observed),
		fmt.Sprintf(`%s{platform=%q} %d`, predict.MetricPredictions, name, lastID),
	}
}

// stateCounters are the families counterLines formats.
var stateCounters = []string{predict.MetricDriftEvents, predict.MetricFaultGapSamples, predict.MetricObservations, predict.MetricPredictions}

// TestRestoredMetricsReadTheState: a restored registry's GET /metrics
// gauges read the restored services — clock, ledger size, calibration
// scale and scenario info — and its counters of the services' own state
// (predictions issued, outcomes observed, drift events, missed sensor
// samples) continue from it, exactly as the live registry's read the
// services it was snapshotted from, not the zeros a fresh series starts at.
func TestRestoredMetricsReadTheState(t *testing.T) {
	spec := predict.FleetSpecs(3, 5)[2] // a workload-scenario tenant
	spec.Faults = []predict.FaultSpec{{Machine: 0, Drop: 0.1, Transient: 0.05}}
	live := obs.NewRegistry()
	reg := predict.NewRegistryWith(predict.RegistryOptions{Metrics: live})
	if err := reg.RegisterSpec(spec); err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Lookup(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	req := baseRequest()
	req.Platform = spec.Name
	var lastID uint64
	for i := 0; i < 60; i++ {
		p, err := svc.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		lastID = p.ID
		if i%2 == 0 {
			// On the mean, then far outside the interval, so the drift
			// detector fires and the scale leaves 1.
			actual := p.Value.Mean
			if i >= 20 {
				actual *= 4
			}
			if _, err := svc.Observe(p.ID, actual); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := svc.Advance(60); err != nil {
		t.Fatal(err)
	}
	if svc.Outstanding() != 30 || svc.Accuracy().Scale == 1 || svc.Now() != spec.Warmup+60 {
		t.Fatalf("setup: outstanding %d, scale %g, clock %g", svc.Outstanding(), svc.Accuracy().Scale, svc.Now())
	}
	if missed := svc.Readout().Reports[0].Gaps.Missed; svc.DriftCount() == 0 || missed == 0 {
		t.Fatalf("setup: %d drift events, %d missed samples on machine 0", svc.DriftCount(), missed)
	}
	restored := obs.NewRegistry()
	if _, err := predict.ReadSnapshot(bytes.NewReader(snapshotBytes(t, reg)), predict.RegistryOptions{Metrics: restored}); err != nil {
		t.Fatal(err)
	}
	families := append([]string{predict.MetricVirtualTime, predict.MetricOutstanding, predict.MetricCalibrationScale, predict.MetricScenarioInfo}, stateCounters...)
	want := append([]string{
		fmt.Sprintf(`%s{platform=%q} %g`, predict.MetricCalibrationScale, spec.Name, svc.Accuracy().Scale),
		fmt.Sprintf(`%s{platform=%q} %g`, predict.MetricOutstanding, spec.Name, 30.0),
		fmt.Sprintf(`%s{platform=%q} %g`, predict.MetricVirtualTime, spec.Name, spec.Warmup+60),
		fmt.Sprintf(`%s{platform=%q,scenario=%q} 1`, predict.MetricScenarioInfo, spec.Name, spec.CPU[0].Scenario),
	}, counterLines(svc, lastID)...)
	slices.Sort(want)
	if got := gaugeLines(t, live, families...); !slices.Equal(got, want) {
		t.Errorf("live registry reads\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got := gaugeLines(t, restored, families...); !slices.Equal(got, want) {
		t.Errorf("restored registry reads\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
