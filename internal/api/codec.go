// Hand-rolled JSON encoders for the serving hot paths (POST /predict and
// /predict/batch): append-style, writing straight from the domain objects
// into pooled buffers. Everything else — every request body (decodeBody in
// server.go), the observe acknowledgement and the cold responses (reports,
// health, accuracy listings) — is encoding/json (writeJSON).
//
// The encoders emit exactly the wire shape of the PredictResponse /
// BatchPredictResponse structs (same keys, same omitempty behavior, nil
// slices as null), so clients decoding with encoding/json see no
// difference; the wire.go structs stay the reference the codec tests hold
// them to.
package api

import (
	"math"
	"strconv"
	"sync"

	"prodpred/internal/nws"
	"prodpred/internal/predict"
)

// bufPool recycles request/response byte buffers across requests. Buffers
// above poolBufCap are dropped rather than pooled so one giant batch does
// not pin memory forever.
var bufPool = sync.Pool{New: func() any { return &poolBuf{b: make([]byte, 0, 4096)} }}

const poolBufCap = 1 << 20

type poolBuf struct{ b []byte }

func getBuf() *poolBuf {
	pb := bufPool.Get().(*poolBuf)
	pb.b = pb.b[:0]
	return pb
}

func (pb *poolBuf) release() {
	if cap(pb.b) <= poolBufCap {
		bufPool.Put(pb)
	}
}

// appendString appends a JSON string literal, escaping quotes, backslashes,
// and control characters (the platform names and error messages this layer
// emits are ASCII; multi-byte runes pass through untouched, which is valid
// JSON).
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigit(c>>4), hexDigit(c&0xf))
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

func hexDigit(n byte) byte {
	if n < 10 {
		return '0' + n
	}
	return 'a' + n - 10
}

// appendFloat appends a JSON number. Non-finite values (which encoding/json
// rejects outright) are clamped to 0 so the exposition stays parseable; the
// pipeline never produces them.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, '0')
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// appendFloats appends a []float64 the way encoding/json does: null when
// nil, a JSON array otherwise.
func appendFloats(b []byte, vs []float64) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	return append(b, ']')
}

func appendGaps(b []byte, g nws.GapStats) []byte {
	b = append(b, `{"clean":`...)
	b = strconv.AppendInt(b, int64(g.Clean), 10)
	b = append(b, `,"recovered":`...)
	b = strconv.AppendInt(b, int64(g.Recovered), 10)
	b = append(b, `,"retries":`...)
	b = strconv.AppendInt(b, int64(g.Retries), 10)
	b = append(b, `,"dropped":`...)
	b = strconv.AppendInt(b, int64(g.Dropped), 10)
	b = append(b, `,"outage":`...)
	b = strconv.AppendInt(b, int64(g.Outage), 10)
	b = append(b, `,"transient_lost":`...)
	b = strconv.AppendInt(b, int64(g.TransientLost), 10)
	b = append(b, `,"sensor_errors":`...)
	b = strconv.AppendInt(b, int64(g.SensorErrors), 10)
	b = append(b, `,"missed":`...)
	b = strconv.AppendInt(b, int64(g.Missed), 10)
	b = append(b, `,"longest_gap":`...)
	b = strconv.AppendInt(b, int64(g.LongestGap), 10)
	return append(b, '}')
}

// appendPrediction encodes one prediction as the PredictResponse wire
// shape, straight from the domain object — no intermediate wire struct, no
// reflection, no per-field allocation.
func appendPrediction(b []byte, platform string, p *predict.Prediction) []byte {
	lo, hi := p.Value.Interval()
	b = append(b, `{"platform":`...)
	b = appendString(b, platform)
	b = append(b, `,"time":`...)
	b = appendFloat(b, p.Time)
	b = append(b, `,"id":`...)
	b = strconv.AppendUint(b, p.ID, 10)
	b = append(b, `,"mean":`...)
	b = appendFloat(b, p.Value.Mean)
	b = append(b, `,"spread":`...)
	b = appendFloat(b, p.Value.Spread)
	b = append(b, `,"lo":`...)
	b = appendFloat(b, lo)
	b = append(b, `,"hi":`...)
	b = appendFloat(b, hi)
	b = append(b, `,"raw_spread":`...)
	b = appendFloat(b, p.Raw.Spread)
	b = append(b, `,"calibration_scale":`...)
	b = appendFloat(b, p.CalibrationScale)
	b = append(b, `,"degraded":`...)
	b = appendBool(b, p.Degraded())
	b = append(b, `,"partition_rows":`...)
	if p.Partition == nil || p.Partition.Rows == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, r := range p.Partition.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(r), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"bw_mean":`...)
	b = appendFloat(b, p.Bandwidth.Mean)
	b = append(b, `,"bw_spread":`...)
	b = appendFloat(b, p.Bandwidth.Spread)
	b = append(b, `,"bw_gaps":`...)
	b = appendGaps(b, p.BWGaps)
	if len(p.Dist.Calibrated) > 0 { // omitempty: a nil Dist on the wire struct
		b = append(b, `,"dist":{"levels":`...)
		b = appendFloats(b, p.Dist.Levels)
		b = append(b, `,"raw":`...)
		b = appendFloats(b, p.Dist.Raw)
		b = append(b, `,"calibrated":`...)
		b = appendFloats(b, p.Dist.Calibrated)
		b = append(b, `,"forecaster":`...)
		b = appendString(b, p.Dist.Forecaster)
		if len(p.Dist.Intervals) > 0 {
			b = append(b, `,"intervals":[`...)
			for i, iv := range p.Dist.Intervals {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"level":`...)
				b = appendFloat(b, iv.Level)
				b = append(b, `,"lo":`...)
				b = appendFloat(b, iv.Lo)
				b = append(b, `,"hi":`...)
				b = appendFloat(b, iv.Hi)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendErrorObj encodes the {"error":"..."} payload every failure path
// returns.
func appendErrorObj(b []byte, msg string) []byte {
	b = append(b, `{"error":`...)
	b = appendString(b, msg)
	return append(b, '}')
}
