package wire

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// refDecodeEventInto is the event decoder DecodeEventInto replaced: a Dec
// walk, one bounds-checked read per field. It stays as the oracle the
// straight-line decoder is held to — decoded value and error class — and is
// not to be optimized.
func refDecodeEventInto(p []byte, ev *Event, buf []float64) error {
	d := Dec{B: p}
	*ev = Event{}
	k := d.U8()
	if d.err == nil && k > uint8(EventJobFinish) {
		return fmt.Errorf("%w: unknown event kind %d", ErrCorrupt, k)
	}
	ev.Kind = EventKind(k)
	ev.JobID = d.U64()
	ev.TaskID = int(d.I64())
	ev.Time = d.F64()
	ev.Tick = int(d.I64())
	ev.Latency = d.F64()
	if n := d.Count(MaxWireFeatures, "features"); n > 0 && d.Need(8*n) {
		if cap(buf) >= n {
			ev.Features = buf[:n]
		} else {
			ev.Features = make([]float64, n)
		}
		for i := range ev.Features {
			ev.Features[i] = d.F64()
		}
	}
	return d.Finish()
}

// errClass names the typed error err wraps, "" for nil.
func errClass(t testing.TB, err error) string {
	t.Helper()
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	t.Fatalf("untyped decode error: %v", err)
	return ""
}

// sameEventBits compares two events field by field on their bit patterns, so
// NaN payloads and the sign of zero count.
func sameEventBits(a, b *Event) bool {
	if a.Kind != b.Kind || a.JobID != b.JobID || a.TaskID != b.TaskID || a.Tick != b.Tick ||
		math.Float64bits(a.Time) != math.Float64bits(b.Time) ||
		math.Float64bits(a.Latency) != math.Float64bits(b.Latency) ||
		a.Pooled != b.Pooled || (a.Features == nil) != (b.Features == nil) || len(a.Features) != len(b.Features) {
		return false
	}
	for i := range a.Features {
		if math.Float64bits(a.Features[i]) != math.Float64bits(b.Features[i]) {
			return false
		}
	}
	return true
}

// checkEventDecode holds DecodeEventInto to the reference walk on payload p,
// with no buffer, one too small for most events and one that holds any the
// tests build: the same error class, on success the same event bit for bit
// with the features in the buffer whenever it holds them, on failure a zero
// event.
func checkEventDecode(t testing.TB, p []byte) {
	t.Helper()
	for _, size := range []int{-1, 1, 512} {
		var buf, refBuf []float64
		if size >= 0 {
			buf, refBuf = make([]float64, 0, size), make([]float64, 0, size)
		}
		var got, want Event
		gotErr := DecodeEventInto(p, &got, buf)
		wantErr := refDecodeEventInto(p, &want, refBuf)
		if g, w := errClass(t, gotErr), errClass(t, wantErr); g != w {
			t.Fatalf("payload %x (buffer %d): error %q (%v), reference %q (%v)", p, size, g, gotErr, w, wantErr)
		}
		if gotErr != nil {
			if !sameEventBits(&got, &Event{}) {
				t.Fatalf("payload %x (buffer %d): failed decode left %+v on the event", p, size, got)
			}
		} else if !sameEventBits(&got, &want) {
			t.Fatalf("payload %x (buffer %d): decoded %+v, reference %+v", p, size, got, want)
		} else if n := len(got.Features); n > 0 && n <= cap(buf) && &got.Features[0] != &buf[:1][0] {
			t.Fatalf("payload %x (buffer %d): %d features decoded into a fresh slice, not the buffer", p, size, n)
		}
	}
}

// TestEventDecodeMatchesReference runs the differential check over every
// event payload the suite knows: the golden frames, float edge cases, every
// truncation of each, each with trailing bytes, unknown kinds, and the
// hostile counts of TestWireHostileCounts with and without a body behind
// them.
func TestEventDecodeMatchesReference(t *testing.T) {
	_, events := goldenElements()
	nan := math.Float64frombits(0x7ff8_0000_dead_beef) // a NaN with a payload
	events = append(events,
		Event{Kind: EventHeartbeat, JobID: math.MaxUint64, TaskID: math.MinInt64, Time: nan, Tick: -1,
			Latency: math.Copysign(0, -1), Features: []float64{nan, math.Inf(-1), math.Copysign(0, -1), -nan}},
		Event{Kind: EventTaskFinish, JobID: 1, TaskID: math.MaxInt64, Time: math.Inf(1), Latency: nan},
		Event{Kind: EventHeartbeat, JobID: 2, Features: make([]float64, 300)},
	)
	var payloads [][]byte
	for i := range events {
		payloads = append(payloads, appendEventPayload(nil, &events[i]))
	}
	withCount := func(p []byte, n uint32) []byte {
		q := append([]byte(nil), p...)
		q[41], q[42], q[43], q[44] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		return q
	}
	for _, p := range payloads {
		for cut := 0; cut <= len(p); cut++ {
			checkEventDecode(t, p[:cut])
		}
		checkEventDecode(t, append(append([]byte(nil), p...), 0xAA))
		checkEventDecode(t, append(append([]byte(nil), p...), make([]byte, 8)...))
		for _, kind := range []byte{byte(EventJobFinish) + 1, 0x80, 0xff} {
			q := append([]byte(nil), p...)
			q[0] = kind
			checkEventDecode(t, q)
			checkEventDecode(t, q[:1]) // an unknown kind outranks the truncation behind it
		}
		// A count above the cap is corrupt before the missing body is
		// truncated; one at the cap, or one more than the body holds, is
		// truncated; one less than the body holds leaves trailing bytes.
		for _, n := range []uint32{math.MaxUint32, MaxWireFeatures + 1, MaxWireFeatures, uint32(len(p)-eventHeadLen)/8 + 1} {
			checkEventDecode(t, withCount(p, n))
			checkEventDecode(t, withCount(p, n)[:eventHeadLen])
		}
		if n := uint32(len(p)-eventHeadLen) / 8; n > 0 {
			checkEventDecode(t, withCount(p, n-1))
		}
	}
}

// TestEncodeDoesNotAllocate: with room in dst, EncodeEvent and EncodeSpec
// build the payload there and checksum it where it lies — no intermediate
// payload buffer (the parent filled a fresh Enc per frame and copied it).
func TestEncodeDoesNotAllocate(t *testing.T) {
	specs, events := goldenElements()
	dst := make([]byte, 0, 1<<10)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range events {
			if _, err := EncodeEvent(dst, events[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := range specs {
			if _, err := EncodeSpec(dst, specs[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("encoding the golden elements into a sized buffer: %.0f allocations, want 0", allocs)
	}
}
