package sim

// The canonical Result bytes. EncodeResult writes exactly what
// encoding/json's Marshal writes for a Result, without reflection and
// into one buffer sized up front: on a 10 240-node Result, Marshal
// allocated about four times the 2.3 MB it returned.

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/mac"
)

// EncodeResult renders the canonical byte form of a Result: compact
// JSON, no trailing newline. These bytes are both the result-cache
// payload and the wire format cmd/simd serves, so they are a stable
// contract: JSON float encoding is shortest-form and round-trips
// bit-exactly, which makes a decoded Result re-encode to the same
// golden bytes as a fresh run — and a daemon-served body byte-identical
// to a local `netsim -scenario ... -json` run of the same spec. The
// bytes equal json.Marshal's (encode_test.go checks it field by field);
// a NaN or infinite value is an error, as it is for json.Marshal.
func EncodeResult(r *Result) ([]byte, error) {
	var keyBuf [8]string
	keys := keyBuf[:0]
	for k := range r.AirtimeShare {
		keys = append(keys, k)
	}
	slices.Sort(keys)

	size := len(`{"ThroughputBps":,"DelaySec":,"CollisionRatio":,"Jain":,"DelaySamplesSec":,"SpatialReuse":,"AirtimeShare":,"NodeStats":}`)
	for _, xs := range [...][]float64{r.ThroughputBps, r.DelaySec, r.CollisionRatio, r.DelaySamplesSec} {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("sim: encode result: unsupported value %v", x)
			}
		}
		size += len("null") + len(xs)*(maxFloatLen+1)
	}
	for _, x := range [...]float64{r.Jain, r.SpatialReuse} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("sim: encode result: unsupported value %v", x)
		}
		size += maxFloatLen
	}
	for _, k := range keys {
		if x := r.AirtimeShare[k]; math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("sim: encode result: unsupported value %v in AirtimeShare[%q]", x, k)
		}
		size += 6*len(k) + len(`"":,`) + maxFloatLen
	}
	size += 2 * len("null") // AirtimeShare's and NodeStats' brackets
	for i := range r.NodeStats {
		size += statsKeysLen + len("},")
		for _, v := range statsValues(&r.NodeStats[i]) {
			size += intLen(v)
		}
	}

	b := make([]byte, 0, size)
	b = appendFloats(append(b, `{"ThroughputBps":`...), r.ThroughputBps)
	b = appendFloats(append(b, `,"DelaySec":`...), r.DelaySec)
	b = appendFloats(append(b, `,"CollisionRatio":`...), r.CollisionRatio)
	b = appendFloat(append(b, `,"Jain":`...), r.Jain)
	b = appendFloats(append(b, `,"DelaySamplesSec":`...), r.DelaySamplesSec)
	b = appendFloat(append(b, `,"SpatialReuse":`...), r.SpatialReuse)
	b = append(b, `,"AirtimeShare":`...)
	if r.AirtimeShare == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(append(appendKey(b, k), ':'), r.AirtimeShare[k])
		}
		b = append(b, '}')
	}
	b = append(b, `,"NodeStats":`...)
	if r.NodeStats == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.NodeStats {
			if i > 0 {
				b = append(b, ',')
			}
			for j, v := range statsValues(&r.NodeStats[i]) {
				b = strconv.AppendInt(append(b, statsKeys[j]...), v, 10)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// DecodeResult parses canonical result bytes back into a Result.
func DecodeResult(b []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("sim: decode cached result: %w", err)
	}
	return &r, nil
}

// maxFloatLen bounds a float64's JSON length: a sign, "0.00000" and 17
// significant digits, or a sign, 17 digits, a point and "e-308".
const maxFloatLen = 25

// appendFloat appends f as encoding/json does: the shortest digits that
// round-trip, in 'f' format except below 1e-6 or at 1e21 and above,
// where it is 'e' with a one-digit negative exponent unpadded (e-7, not
// e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendFloats appends xs as a JSON array, or null for a nil slice.
func appendFloats(b []byte, xs []float64) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, x)
	}
	return append(b, ']')
}

// appendKey appends k as a quoted JSON object key. Keys of printable
// ASCII that encoding/json leaves as they are (no quote, backslash or
// HTML-sensitive <, >, &) are copied; any other key takes json.Marshal's
// escaping.
func appendKey(b []byte, k string) []byte {
	for i := 0; i < len(k); i++ {
		if c := k[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(k) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, k...)
	return append(b, '"')
}

// statsKeys are mac.Stats's JSON keys in declaration order, each with
// the separator before it; statsValues lists the fields in the same
// order.
var statsKeys = [...]string{
	`{"RTSSent":`, `,"CTSSent":`, `,"DataSent":`, `,"ACKSent":`,
	`,"CTSTimeouts":`, `,"ACKTimeouts":`, `,"Successes":`, `,"BitsAcked":`,
	`,"Drops":`, `,"DelaySum":`, `,"DelayCount":`, `,"DataDelivered":`,
	`,"BitsDelivered":`, `,"FrameErrors":`, `,"DupsSuppressed":`,
}

// statsKeysLen is the summed length of statsKeys.
var statsKeysLen = func() int {
	n := 0
	for _, k := range statsKeys {
		n += len(k)
	}
	return n
}()

func statsValues(st *mac.Stats) [len(statsKeys)]int64 {
	return [...]int64{
		st.RTSSent, st.CTSSent, st.DataSent, st.ACKSent,
		st.CTSTimeouts, st.ACKTimeouts, st.Successes, st.BitsAcked,
		st.Drops, int64(st.DelaySum), st.DelayCount, st.DataDelivered,
		st.BitsDelivered, st.FrameErrors, st.DupsSuppressed,
	}
}

// intLen returns the length of v in decimal.
func intLen(v int64) int {
	n := 1
	if v < 0 {
		n++
	}
	for v <= -10 || v >= 10 {
		v /= 10
		n++
	}
	return n
}
