package predict

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"prodpred/internal/calib"
	"prodpred/internal/nws"
)

// Snapshot format: a versioned little-endian binary image of the full
// fleet — every registered platform's declarative spec plus, for live
// (instantiated) platforms, the complete dynamic service state:
//
//   - the virtual clock,
//   - every CPU and bandwidth monitor (ring history, forecaster-mix
//     postmortem scores, gap counters, staleness),
//   - the prediction ledger (next ID and issued-but-unobserved entries in
//     issue order),
//   - the calibration tracker (window, CUSUM, regime state, drift log).
//
// Restore rebuilds each platform's static structure from its embedded
// spec — load processes and fault decisions are pure functions of
// (seed, virtual time), so they need no serialization — and imports the
// dynamic state on top. A restored fleet is bit-identical to one that
// never stopped: same predictions, same IDs, same calibration, asserted
// by TestSnapshotRestoreBitIdentical.
//
// The format version is 2 (v2 added the distribution-valued prediction
// state: per-monitor forecaster-tournament sections, per-window-rec
// quantile nonconformity scores in the tracker, the raw quantile grid per
// ledger entry). It is the only version ReadSnapshot accepts; any other is
// refused with "unsupported snapshot version".
const (
	snapshotMagic   = "PPSNAP"
	snapshotVersion = 2
)

// snapEnc builds the snapshot image with append-only little-endian
// primitives.
type snapEnc struct {
	b []byte
}

func (e *snapEnc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *snapEnc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *snapEnc) i64(v int64)   { e.u64(uint64(v)) }
func (e *snapEnc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *snapEnc) boolean(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *snapEnc) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *snapEnc) str(v string) { e.bytes([]byte(v)) }

// f64s writes a length-prefixed float64 slice (nil and empty both encode
// as length 0).
func (e *snapEnc) f64s(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

// snapDec consumes a snapshot image; the first malformed read poisons the
// decoder and every subsequent read returns zero values, so call sites
// check err once per section.
type snapDec struct {
	b   []byte
	off int
	err error
}

func (d *snapDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *snapDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("predict: snapshot truncated at offset %d (need %d bytes)", d.off, n)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *snapDec) u32() uint32 {
	if v := d.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (d *snapDec) u64() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (d *snapDec) i64() int64   { return int64(d.u64()) }
func (d *snapDec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *snapDec) boolean() bool {
	if v := d.take(1); v != nil {
		return v[0] != 0
	}
	return false
}

// count reads a u32 length and bounds-checks it against the remaining
// bytes at elemSize each, so a corrupt length cannot drive a huge
// allocation.
func (d *snapDec) count(elemSize int) int {
	n := int(d.u32())
	if d.err == nil && n*elemSize > len(d.b)-d.off {
		d.fail("predict: snapshot count %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return 0
	}
	return n
}

func (d *snapDec) bytes() []byte { return d.take(d.count(1)) }
func (d *snapDec) str() string   { return string(d.bytes()) }

// f64s reads a length-prefixed float64 slice; length 0 decodes as nil so a
// round trip through nil is exact.
func (d *snapDec) f64s() []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

// WriteSnapshot streams the full fleet — each platform's spec and, for live
// ones, the service state — to w. Platforms are written in name order, so
// equal fleets produce byte-identical snapshots.
//
// Every spec is marshalled before the first byte is written, so an error
// from that happens with w untouched; any later error is w's own. Then the
// header and each platform's section go to w one Write each, encoded into
// one reused buffer: a platform's clock lock is held while its section is
// encoded and released before the section is written.
func (r *Registry) WriteSnapshot(w io.Writer) error {
	plats := r.entriesByName()
	specs := make([][]byte, len(plats))
	for i, p := range plats {
		specJSON, err := json.Marshal(p.spec)
		if err != nil {
			return fmt.Errorf("predict: encoding spec %q: %w", p.name, err)
		}
		specs[i] = specJSON
	}
	e := &snapEnc{b: make([]byte, 0, 1<<16)}
	e.b = append(e.b, snapshotMagic...)
	e.u32(snapshotVersion)
	e.u32(uint32(len(plats)))
	if err := e.flush(w); err != nil {
		return err
	}
	for i, p := range plats {
		svc := p.svc.Load()
		e.str(p.name)
		e.bytes(specs[i])
		e.boolean(svc != nil)
		if svc != nil {
			svc.exportTo(e)
		}
		if err := e.flush(w); err != nil {
			return err
		}
	}
	return nil
}

// flush writes what the encoder holds to w and empties it for the next
// section.
func (e *snapEnc) flush(w io.Writer) error {
	_, err := w.Write(e.b)
	e.b = e.b[:0]
	return err
}

// MaxSnapshotBytes is the largest image ReadSnapshot reads: 1 GiB, some
// three hundred times a 192-tenant fleet's image. A longer one is refused
// before it is held in memory.
const MaxSnapshotBytes = 1 << 30

// ReadSnapshot rebuilds a fleet registry from a snapshot image: cold specs
// re-register cold, live platforms are reconstructed from their spec and
// their dynamic state imported, so the restored registry continues exactly
// where the snapshotted one stopped. An image longer than MaxSnapshotBytes
// is refused.
func ReadSnapshot(rd io.Reader, opts RegistryOptions) (*Registry, error) {
	data, err := readImage(rd, MaxSnapshotBytes)
	if err != nil {
		return nil, err
	}
	d := &snapDec{b: data}
	if got := string(d.take(len(snapshotMagic))); d.err == nil && got != snapshotMagic {
		return nil, fmt.Errorf("predict: bad snapshot magic %q", got)
	}
	if v := d.u32(); d.err == nil && v != snapshotVersion {
		return nil, fmt.Errorf("predict: unsupported snapshot version %d (want %d)", v, snapshotVersion)
	}
	reg := NewRegistryWith(opts)
	n := d.count(1)
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		specJSON := d.bytes()
		live := d.boolean()
		if d.err != nil {
			break
		}
		var spec PlatformSpec
		if err := decodeSpecJSON(bytes.NewReader(specJSON), &spec); err != nil {
			return nil, fmt.Errorf("predict: decoding spec %q: %w", name, err)
		}
		if spec.Name != name {
			return nil, fmt.Errorf("predict: snapshot spec name %q does not match entry %q", spec.Name, name)
		}
		if !live {
			if err := reg.RegisterSpec(spec); err != nil {
				return nil, err
			}
			continue
		}
		svc, err := restoreService(&spec, reg, d)
		if err != nil {
			return nil, fmt.Errorf("predict: restoring platform %q: %w", name, err)
		}
		if err := reg.addLive(svc); err != nil {
			return nil, err
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("predict: %d trailing bytes after snapshot", len(d.b)-d.off)
	}
	return reg, nil
}

// readImage reads a whole image of at most limit bytes. A regular file's
// size is known before it is read, so a file over the limit is refused
// unread and one within it is read into one buffer of its size.
func readImage(rd io.Reader, limit int64) ([]byte, error) {
	tooLarge := fmt.Errorf("predict: snapshot image exceeds the %d-byte limit", limit)
	var buf bytes.Buffer
	if f, ok := rd.(*os.File); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			if fi.Size() > limit {
				return nil, tooLarge
			}
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	if _, err := buf.ReadFrom(io.LimitReader(rd, limit+1)); err != nil {
		return nil, fmt.Errorf("predict: reading snapshot: %w", err)
	}
	if int64(buf.Len()) > limit {
		return nil, tooLarge
	}
	return buf.Bytes(), nil
}

// restoreService rebuilds one live platform: static structure from the
// spec (no warmup — the imported clock supersedes it), dynamic state from
// the decoder.
func restoreService(spec *PlatformSpec, reg *Registry, d *snapDec) (*Service, error) {
	svc, err := newService(spec, reg.metrics)
	if err != nil {
		return nil, err
	}
	if err := svc.importFrom(d); err != nil {
		return nil, err
	}
	return svc, nil
}

// exportTo writes the service's full dynamic state. It takes the clock
// lock exclusively, so the image is a consistent cut: no Predict, Observe,
// or Advance is in flight while the state is read, and the monitors need no
// lock of their own. Monitors a fleet-wide wave left behind are caught up
// first, so the image is the one an eager step would have left.
func (s *Service) exportTo(e *snapEnc) {
	s.clockMu.Lock()
	defer s.clockMu.Unlock()
	s.catchUpLocked()

	e.f64(s.now)

	// CPU monitors, machine order.
	e.u32(uint32(len(s.cpu)))
	for _, mon := range s.cpu {
		encodeMonitorState(e, mon.ExportState())
	}

	// Bandwidth monitors, in ascending probe size. The flag says the monitor
	// was built: always true since a monitor is built before it is listed,
	// kept so the image layout (and importFrom's reading of older images,
	// which could list a probe size ahead of its monitor) does not move.
	e.u32(uint32(len(s.bw)))
	for _, b := range s.bw {
		e.f64(b.probe)
		e.boolean(true)
		encodeMonitorState(e, b.mon.ExportState())
	}

	// Prediction ledger: live entries in issue order, which is ID order.
	s.ledgerMu.Lock()
	s.ledger.encode(e)
	s.ledgerMu.Unlock()

	encodeTrackerState(e, s.tracker.ExportState())
}

// importFrom replaces a freshly built service's dynamic state with a
// decoded snapshot section. The service must not yet be published to a
// registry; it holds the clock lock (and the ledger's for the ledger) all
// the same, because its metrics registry already reads it.
func (s *Service) importFrom(d *snapDec) error {
	s.clockMu.Lock()
	defer s.clockMu.Unlock()
	s.now = d.f64()
	if d.err == nil && !(s.now >= 0 && s.now <= math.MaxFloat64) {
		return fmt.Errorf("predict: snapshot clock %g is not a finite time >= 0", s.now)
	}
	s.env.Hold(s.now)

	nCPU := d.count(1)
	if d.err == nil && nCPU != len(s.cpu) {
		return fmt.Errorf("predict: snapshot has %d CPU monitors, platform has %d machines", nCPU, len(s.cpu))
	}
	for i := 0; i < nCPU && d.err == nil; i++ {
		st := decodeMonitorState(d)
		if d.err != nil {
			break
		}
		if err := s.importMonitor(s.cpu[i], st); err != nil {
			return err
		}
	}

	nBW := d.count(1)
	lastProbe := 0.0 // images list probe sizes ascending, as the service keeps them
	for i := 0; i < nBW && d.err == nil; i++ {
		probe := d.f64()
		if d.err == nil && !(probe > lastProbe) {
			return fmt.Errorf("predict: snapshot bandwidth probe size %g does not ascend from %g", probe, lastProbe)
		}
		lastProbe = probe
		if !d.boolean() {
			// An older image caught a probe size listed ahead of its monitor.
			// Nothing to import: the next request for that size rebuilds the
			// monitor from virtual time, bit for bit.
			continue
		}
		st := decodeMonitorState(d)
		if d.err != nil {
			break
		}
		mon, err := nws.NewBandwidthMonitor(s.env, 0, 1, probe, nws.DefaultPeriod, s.history)
		if err != nil {
			return err
		}
		// Bandwidth monitors carry no tournament: the section an older
		// image holds for one is decoded above and dropped here.
		if err := s.importMonitor(mon, st); err != nil {
			return err
		}
		s.bw = append(s.bw, bwMonitor{probe: probe, mon: mon})
	}

	s.ledgerMu.Lock()
	defer s.ledgerMu.Unlock()
	if err := s.ledger.decode(d); err != nil {
		return err
	}

	ts := decodeTrackerState(d)
	if d.err != nil {
		return d.err
	}
	return s.tracker.ImportState(ts)
}

// importMonitor imports into mon a monitor state that stands at the image's
// clock (s.now), and refuses any other. exportTo catches every monitor up
// first, so its next sample falls in (clock, clock + period]; a state behind
// the clock, or never started (which restarts at time 0), would make the
// restored tenant's first step sample the whole distance under its lock.
func (s *Service) importMonitor(mon *nws.Monitor, st nws.MonitorState) error {
	if end := s.now + mon.Period(); !st.Started || !(st.NextT > s.now && st.NextT <= end) {
		return fmt.Errorf("predict: snapshot monitor's next sample %g is not in (%g, %g]", st.NextT, s.now, end)
	}
	return mon.ImportState(st)
}

func encodeMonitorState(e *snapEnc, st nws.MonitorState) {
	e.f64(st.NextT)
	e.boolean(st.Started)
	e.f64(st.Stale)
	e.i64(int64(st.CurGap))
	g := st.Stats
	for _, v := range []int{g.Clean, g.Recovered, g.Retries, g.Dropped, g.Outage, g.TransientLost, g.SensorErrors, g.Missed, g.LongestGap} {
		e.i64(int64(v))
	}
	e.u32(uint32(len(st.Times)))
	for i := range st.Times {
		e.f64(st.Times[i])
		e.f64(st.Values[i])
	}
	e.u32(uint32(len(st.MixSqErr)))
	for i := range st.MixSqErr {
		e.f64(st.MixSqErr[i])
		e.i64(int64(st.MixN[i]))
	}
	// v2: the distribution-forecaster tournament.
	ts := st.Tournament
	e.u32(uint32(len(ts.Loss)))
	for i := range ts.Loss {
		e.f64(ts.Loss[i])
		e.f64(ts.Weight[i])
		e.i64(ts.Wins[i])
	}
	e.f64s(ts.Residuals)
	e.i64(int64(ts.FitObs))
	e.u32(uint32(len(ts.FitModes)))
	for _, c := range ts.FitModes {
		e.f64(c.Weight)
		e.f64(c.Mean)
		e.f64(c.Sigma)
	}
}

func decodeMonitorState(d *snapDec) nws.MonitorState {
	var st nws.MonitorState
	st.NextT = d.f64()
	st.Started = d.boolean()
	st.Stale = d.f64()
	st.CurGap = int(d.i64())
	g := &st.Stats
	for _, p := range []*int{&g.Clean, &g.Recovered, &g.Retries, &g.Dropped, &g.Outage, &g.TransientLost, &g.SensorErrors, &g.Missed, &g.LongestGap} {
		*p = int(d.i64())
	}
	nHist := d.count(16)
	st.Times = make([]float64, nHist)
	st.Values = make([]float64, nHist)
	for i := 0; i < nHist; i++ {
		st.Times[i] = d.f64()
		st.Values[i] = d.f64()
	}
	nMix := d.count(16)
	st.MixSqErr = make([]float64, nMix)
	st.MixN = make([]int, nMix)
	for i := 0; i < nMix; i++ {
		st.MixSqErr[i] = d.f64()
		st.MixN[i] = int(d.i64())
	}
	ts := &st.Tournament
	nTour := d.count(24)
	if nTour > 0 {
		ts.Loss = make([]float64, nTour)
		ts.Weight = make([]float64, nTour)
		ts.Wins = make([]int64, nTour)
		for i := 0; i < nTour; i++ {
			ts.Loss[i] = d.f64()
			ts.Weight[i] = d.f64()
			ts.Wins[i] = d.i64()
		}
	}
	ts.Residuals = d.f64s()
	ts.FitObs = int(d.i64())
	nModes := d.count(24)
	if nModes > 0 {
		ts.FitModes = make([]nws.Component, nModes)
		for i := 0; i < nModes; i++ {
			ts.FitModes[i].Weight = d.f64()
			ts.FitModes[i].Mean = d.f64()
			ts.FitModes[i].Sigma = d.f64()
		}
	}
	return st
}

func encodeTrackerState(e *snapEnc, st calib.State) {
	e.u32(uint32(len(st.Window)))
	for _, r := range st.Window {
		e.u64(r.ID)
		e.f64(r.Time)
		e.f64(r.Z)
		e.f64(r.Score)
		e.f64(r.Signed)
		e.f64(r.Abs)
		e.f64(r.RawW)
		e.f64(r.CalW)
		e.boolean(r.RawIn)
		e.boolean(r.CalIn)
		e.boolean(r.Armed)
		e.boolean(r.Excluded)
		// v2: per-quantile calibration evidence.
		e.boolean(r.Qok)
		e.f64s(r.QsLo)
		e.f64s(r.QsHi)
		e.f64(r.QRel)
		e.f64(r.Pit)
	}
	e.u32(uint32(len(st.Drifts)))
	for _, ev := range st.Drifts {
		e.f64(ev.Time)
		e.i64(int64(ev.Seq))
		e.str(ev.Reason)
		e.f64(ev.Stat)
	}
	e.i64(int64(st.Observed))
	e.i64(int64(st.CumRawIn))
	e.i64(int64(st.CumCalIn))
	e.f64(st.LastTime)
	e.i64(int64(st.SinceReset))
	e.f64(st.Scale)
	e.i64(int64(st.BaseN))
	e.f64(st.BaseSum)
	e.f64(st.CusumPos)
	e.f64(st.CusumNeg)
	e.i64(int64(st.SinceCheck))
	e.i64(int64(st.BaseModes))
}

func decodeTrackerState(d *snapDec) calib.State {
	var st calib.State
	nWin := d.count(8 + 7*8 + 4)
	st.Window = make([]calib.WindowRec, nWin)
	for i := 0; i < nWin; i++ {
		r := &st.Window[i]
		r.ID = d.u64()
		r.Time = d.f64()
		r.Z = d.f64()
		r.Score = d.f64()
		r.Signed = d.f64()
		r.Abs = d.f64()
		r.RawW = d.f64()
		r.CalW = d.f64()
		r.RawIn = d.boolean()
		r.CalIn = d.boolean()
		r.Armed = d.boolean()
		r.Excluded = d.boolean()
		r.Qok = d.boolean()
		r.QsLo = d.f64s()
		r.QsHi = d.f64s()
		r.QRel = d.f64()
		r.Pit = d.f64()
	}
	nDrifts := d.count(8 + 8 + 4 + 8)
	st.Drifts = make([]calib.DriftEvent, nDrifts)
	for i := 0; i < nDrifts; i++ {
		st.Drifts[i].Time = d.f64()
		st.Drifts[i].Seq = int(d.i64())
		st.Drifts[i].Reason = d.str()
		st.Drifts[i].Stat = d.f64()
	}
	st.Observed = int(d.i64())
	st.CumRawIn = int(d.i64())
	st.CumCalIn = int(d.i64())
	st.LastTime = d.f64()
	st.SinceReset = int(d.i64())
	st.Scale = d.f64()
	st.BaseN = int(d.i64())
	st.BaseSum = d.f64()
	st.CusumPos = d.f64()
	st.CusumNeg = d.f64()
	st.SinceCheck = int(d.i64())
	st.BaseModes = int(d.i64())
	return st
}
