package servehttp

// verdictjson.go is GET /query's response encoder: the one JSON shape hot
// enough (one verdict per running task per call, early and often) that
// encoding/json's reflection walk was most of the handler. appendVerdicts
// emits, byte for byte, what json.NewEncoder(w).Encode(vs) emits for a
// []serve.TaskVerdict — TestAppendVerdictsMatchesEncodingJSON and
// FuzzAppendVerdicts hold it to that oracle (and count the two structs'
// fields), so a field added to serve.TaskVerdict or nurd.Prediction fails
// there until it is added here.
// Every other body (/report, /stats, errors) stays on encoding/json.

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/serve"
)

// appendVerdicts appends the JSON encoding of vs and a trailing newline to
// dst. A NaN or infinite Prediction cell has no JSON form: the error names
// it and the returned slice is dst with a partial encoding the caller must
// not send.
func appendVerdicts(dst []byte, vs []serve.TaskVerdict) ([]byte, error) {
	if vs == nil {
		return append(dst, "null\n"...), nil
	}
	dst = append(dst, '[')
	for i := range vs {
		v := &vs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"TaskID":`...)
		dst = appendInt(dst, v.TaskID)
		if v.Prediction == nil && uint(v.FlaggedAt) < answerlessFlaggedAts {
			dst = append(dst, answerlessTails[flagBits(v)*answerlessFlaggedAts+v.FlaggedAt]...)
			continue
		}
		dst = append(dst, flagRuns[flagBits(v)&7]...)
		dst = appendInt(dst, v.FlaggedAt)
		if p := v.Prediction; p == nil {
			dst = append(dst, `,"Prediction":null`...)
		} else {
			for _, c := range [...]struct {
				key string
				f   float64
			}{
				{`,"Prediction":{"Latency":`, p.Latency},
				{`,"Propensity":`, p.Propensity},
				{`,"Weight":`, p.Weight},
				{`,"Adjusted":`, p.Adjusted},
			} {
				dst = append(dst, c.key...)
				var err error
				if dst, err = appendFloat(dst, c.f); err != nil {
					return dst, fmt.Errorf("servehttp: verdict for task %d: %w", v.TaskID, err)
				}
			}
			dst = append(dst, '}')
		}
		dst = append(dst, `,"Straggler":`...)
		dst = strconv.AppendBool(dst, v.Straggler)
		dst = append(dst, '}')
	}
	return append(dst, "]\n"...), nil
}

// answerlessFlaggedAts bounds the FlaggedAt values answerlessTails holds:
// 0, a task never flagged, and the first nine checkpoint indices. Any other
// value takes the general path.
const answerlessFlaggedAts = 10

// answerlessTails holds everything after the TaskID of an answer-less
// verdict — no Prediction: every verdict of a job with no published model
// and every finished or flagged task's — from `,"Known":` to the closing
// brace, for each setting of the four booleans and each FlaggedAt below
// answerlessFlaggedAts, indexed flagBits*answerlessFlaggedAts + FlaggedAt.
var answerlessTails = func() (tails [16 * answerlessFlaggedAts]string) {
	for i := range tails {
		bits, at := i/answerlessFlaggedAts, i%answerlessFlaggedAts
		tails[i] = flagRuns[bits&7] + strconv.Itoa(at) + `,"Prediction":null,"Straggler":` + strconv.FormatBool(bits&8 != 0) + `}`
	}
	return tails
}()

// flagBits packs a verdict's booleans as Known | Finished<<1 | Flagged<<2 |
// Straggler<<3: the low three bits index flagRuns, all four answerlessTails.
func flagBits(v *serve.TaskVerdict) int {
	return b2i(v.Known) | b2i(v.Finished)<<1 | b2i(v.Flagged)<<2 | b2i(v.Straggler)<<3
}

// flagRuns holds the run between a verdict's TaskID and FlaggedAt values,
// `,"Known":…,"Finished":…,"Flagged":…,"FlaggedAt":`, for each of the eight
// settings of its three booleans, indexed Known | Finished<<1 | Flagged<<2.
var flagRuns = func() (runs [8]string) {
	for i := range runs {
		runs[i] = `,"Known":` + strconv.FormatBool(i&1 != 0) + `,"Finished":` + strconv.FormatBool(i&2 != 0) +
			`,"Flagged":` + strconv.FormatBool(i&4 != 0) + `,"FlaggedAt":`
	}
	return runs
}()

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// appendInt appends n in decimal: digit by digit below 1000 (every task ID
// of a job of up to 1000 tasks, every checkpoint index) and through strconv
// otherwise.
func appendInt(dst []byte, n int) []byte {
	switch {
	case n < 0 || n >= 1000:
		return strconv.AppendInt(dst, int64(n), 10)
	case n < 10:
		return append(dst, byte('0'+n))
	case n < 100:
		return append(dst, byte('0'+n/10), byte('0'+n%10))
	}
	return append(dst, byte('0'+n/100), byte('0'+n/10%10), byte('0'+n%10))
}

// appendFloat appends f under encoding/json's float64 rule (the ES6
// number-to-string conversion): shortest round-trip digits, 'f' form unless
// the magnitude is below 1e-6 or at least 1e21, then 'e' form with a
// two-digit negative exponent's leading zero dropped (e-09 → e-9). NaN and
// ±Inf have no JSON form and are an error there and here.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("unsupported JSON number %v", f)
	}
	abs := math.Abs(f)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(dst, f, 'f', -1, 64), nil
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}
