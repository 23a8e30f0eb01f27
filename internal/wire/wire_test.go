package wire

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenElements is a fixed spec/event stream exercising every encoder
// branch: schema strings, empty and non-empty feature vectors, negative and
// extreme floats, and all four event kinds.
func goldenElements() ([]JobSpec, []Event) {
	specs := []JobSpec{
		{JobID: 7, Schema: []string{"cpu", "mem", "io-wait"}, NumTasks: 4, TauStra: 12.5,
			StragglerQuantile: 0.9, Horizon: 100, Checkpoints: 10, WarmFrac: 0.04, Seed: 99},
		{JobID: 1 << 60, Schema: []string{"x"}, NumTasks: 1, TauStra: 1e-3,
			StragglerQuantile: 0.5, Horizon: 1e9, Checkpoints: 1, WarmFrac: 0.25, Seed: 0,
			RefitMode: RefitWarm},
	}
	events := []Event{
		{Kind: EventTaskStart, JobID: 7, TaskID: 0, Time: 0},
		{Kind: EventHeartbeat, JobID: 7, TaskID: 0, Time: 10, Tick: 1,
			Features: []float64{1.5, -2.25, math.MaxFloat64}},
		{Kind: EventHeartbeat, JobID: 7, TaskID: 0, Time: 20, Tick: 2,
			Features: []float64{0, math.SmallestNonzeroFloat64, -0.0}},
		{Kind: EventTaskFinish, JobID: 7, TaskID: 0, Time: 31.25, Latency: 31.25},
		{Kind: EventTaskStart, JobID: 1 << 60, TaskID: 0, Time: 0.125},
		{Kind: EventJobFinish, JobID: 7, Time: 100},
	}
	return specs, events
}

func encodeStream(t testing.TB, specs []JobSpec, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteDump(&buf, specs, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func goldenPath() string {
	return filepath.Join("testdata", fmt.Sprintf("wire_v%d.golden", Version))
}

// TestWireGolden pins the byte-level format: today's encoder must reproduce
// the committed golden stream exactly (any diff is a silent format break —
// bump Version instead), and decoding the golden bytes must yield the
// original elements.
func TestWireGolden(t *testing.T) {
	specs, events := goldenElements()
	enc := encodeStream(t, specs, events)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoder output diverged from golden file: %d vs %d bytes — "+
			"a byte-level format change requires a Version bump", len(enc), len(want))
	}

	wr := NewReader(bytes.NewReader(want))
	var gotSpecs []JobSpec
	var gotEvents []Event
	for {
		sp, ev, err := next(wr)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if sp != nil {
			gotSpecs = append(gotSpecs, *sp)
		} else {
			gotEvents = append(gotEvents, *ev)
		}
	}
	if !reflect.DeepEqual(gotSpecs, specs) {
		t.Errorf("decoded specs diverge:\n got %+v\nwant %+v", gotSpecs, specs)
	}
	if !reflect.DeepEqual(gotEvents, events) {
		t.Errorf("decoded events diverge:\n got %+v\nwant %+v", gotEvents, events)
	}
}

// TestWireRoundTrip checks canonical re-encoding frame by frame:
// re-encoding every decoded frame reproduces the original bytes.
func TestWireRoundTrip(t *testing.T) {
	specs, events := goldenElements()
	enc := encodeStream(t, specs, events)
	off, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	re := AppendHeader(nil)
	for off < len(enc) {
		kind, payload, n, err := DecodeFrame(enc[off:])
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		switch kind {
		case FrameSpec:
			sp, err := DecodeSpecPayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			if re, err = EncodeSpec(re, sp); err != nil {
				t.Fatal(err)
			}
		case FrameEvent:
			ev, err := decodeEventPayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			if re, err = EncodeEvent(re, ev); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected frame kind %d", kind)
		}
		off += n
	}
	if !bytes.Equal(re, enc) {
		t.Error("re-encoding decoded frames did not reproduce the original stream")
	}
}

// TestEncodeDropRoundTrip: EncodeDrop appends one whole FrameDrop behind
// what dst holds, its payload decodes to the job ID, and FrameJobID reads
// the same ID without decoding.
func TestEncodeDropRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 7, 1<<63 + 5, math.MaxUint64} {
		prefix := []byte("held")
		b := EncodeDrop(prefix, id)
		if !bytes.Equal(b[:len(prefix)], prefix) {
			t.Fatalf("job %d: EncodeDrop changed the bytes before its frame", id)
		}
		kind, payload, n, err := DecodeFrame(b[len(prefix):])
		if err != nil || kind != FrameDrop || len(prefix)+n != len(b) {
			t.Fatalf("job %d: frame kind %d, %d of %d bytes, %v; want one whole drop frame", id, kind, n, len(b)-len(prefix), err)
		}
		if got, err := DecodeDropPayload(payload); err != nil || got != id {
			t.Errorf("DecodeDropPayload = %d, %v; want %d", got, err, id)
		}
		if got, err := FrameJobID(kind, payload); err != nil || got != id {
			t.Errorf("FrameJobID = %d, %v; want %d", got, err, id)
		}
	}
}

// next is the allocating walk NextInto is pinned to: the next element of a
// spec/event stream, exactly one of the two results non-nil, each decoded
// fresh from NextFrame's payload.
func next(wr *Reader) (*JobSpec, *Event, error) {
	kind, payload, err := wr.NextFrame()
	if err != nil {
		return nil, nil, err
	}
	switch kind {
	case FrameSpec:
		sp, err := DecodeSpecPayload(payload)
		if err != nil {
			return nil, nil, err
		}
		return &sp, nil, nil
	case FrameEvent:
		ev, err := decodeEventPayload(payload)
		if err != nil {
			return nil, nil, err
		}
		return nil, &ev, nil
	default:
		return nil, nil, fmt.Errorf("%w: frame kind %d in a spec/event stream", ErrCorrupt, kind)
	}
}

// decodeAll consumes a stream, returning the element count and first error.
func decodeAll(b []byte) (int, error) {
	wr := NewReader(bytes.NewReader(b))
	n := 0
	for {
		_, _, err := next(wr)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// TestWireTruncation cuts the golden stream at every byte offset: a cut on
// a frame boundary decodes a clean prefix; any other cut must surface
// ErrTruncated — never a panic, never silent success of a partial frame.
func TestWireTruncation(t *testing.T) {
	specs, events := goldenElements()
	enc := encodeStream(t, specs, events)
	total := len(specs) + len(events)
	cleanCuts := 0
	for i := 0; i < len(enc); i++ {
		n, err := decodeAll(enc[:i])
		if err == nil {
			cleanCuts++
			if n >= total {
				t.Fatalf("cut at %d/%d decoded all %d elements", i, len(enc), n)
			}
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: %v (want ErrTruncated)", i, err)
		}
	}
	// Frame boundaries: one per element, minus the final boundary (i ==
	// len(enc) is not cut here).
	if cleanCuts != total {
		t.Errorf("%d clean frame-boundary cuts, want %d", cleanCuts, total)
	}
}

// TestWireCorruption flips every bit of the golden stream one at a time;
// each flip must be detected (magic, version, kind, checksum) — decoding
// must error, never panic, and never silently decode the full stream with
// altered content... except that a flip can only go unnoticed if it leaves
// every decoded element equal to the original, which a single bit flip
// cannot (every byte is covered by magic, version, kind, length, payload
// CRC, or the CRC itself).
func TestWireCorruption(t *testing.T) {
	specs, events := goldenElements()
	enc := encodeStream(t, specs, events)
	for i := 0; i < len(enc); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 1 << bit
			if _, err := decodeAll(mut); err == nil {
				t.Fatalf("flipping byte %d bit %d went undetected", i, bit)
			}
		}
	}
}

// TestWireVersionSkew pins the version gate: a stream stamped with any
// other version must be rejected with ErrVersion.
func TestWireVersionSkew(t *testing.T) {
	specs, events := goldenElements()
	enc := encodeStream(t, specs, events)
	for _, v := range []uint16{0, Version - 1, Version + 1, 255, math.MaxUint16} {
		mut := append([]byte(nil), enc...)
		mut[8] = byte(v)
		mut[9] = byte(v >> 8)
		if _, err := decodeAll(mut); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: %v (want ErrVersion)", v, err)
		}
	}
	if _, err := decodeAll([]byte("NOTNURD!....")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v (want ErrBadMagic)", err)
	}
}

// TestWireRetiredKind: the retired frame kinds — 3 and 4 (snapshot job
// section and checkpoint view), 5 (snapshot LSN mark), 6 (compact
// job-finish WAL record), 8 (WAL record envelope) and 10 (WAL commit-file
// frame) — are unknown kinds like any other, even under a valid checksum.
func TestWireRetiredKind(t *testing.T) {
	for _, kind := range []FrameKind{3, 4, 5, 6, 8, 10} {
		if _, _, _, err := DecodeFrame(AppendFrame(nil, kind, []byte{1, 2, 3})); !errors.Is(err, ErrCorrupt) {
			t.Errorf("kind %d: %v (want ErrCorrupt)", kind, err)
		}
	}
}

// TestWireHostileCounts crafts frames whose embedded counts would demand
// huge allocations; the decoder must reject them (bounded before any
// allocation) rather than attempt them.
func TestWireHostileCounts(t *testing.T) {
	// An event frame claiming 2^32-1 features in a 50-byte payload.
	var e Enc
	e.U8(uint8(EventHeartbeat))
	e.U64(1)
	e.I64(0)
	e.F64(0)
	e.I64(1)
	e.F64(0)
	e.U32(math.MaxUint32)
	frame := AppendFrame(AppendHeader(nil), FrameEvent, e.B)
	if _, err := decodeAll(frame); !errors.Is(err, ErrCorrupt) {
		t.Errorf("hostile feature count: %v (want ErrCorrupt)", err)
	}
	// A frame header claiming a payload beyond the frame cap.
	hdr := AppendHeader(nil)
	hdr = append(hdr, byte(FrameEvent), 0xff, 0xff, 0xff, 0x7f)
	if _, err := decodeAll(hdr); !errors.Is(err, ErrCorrupt) {
		t.Errorf("hostile frame length: %v (want ErrCorrupt)", err)
	}
	// Spec frames whose NumTasks/Checkpoints would size huge server-side
	// allocations (StartJob builds a task slice per spec) must be rejected
	// in the wire layer, before the spec can reach a Server.
	hostileSpec := func(numTasks, checkpoints int64) []byte {
		var e Enc
		e.U64(9)
		e.U32(1)
		e.Str("x")
		e.I64(numTasks)
		e.F64(1)
		e.F64(0.9)
		e.F64(100)
		e.I64(checkpoints)
		e.F64(0.04)
		e.U64(0)
		return AppendFrame(AppendHeader(nil), FrameSpec, e.B)
	}
	for _, tc := range []struct {
		name    string
		nt, cps int64
	}{
		{"huge task count", 1 << 40, 10},
		{"negative task count", -1, 10},
		{"huge checkpoint count", 4, 1 << 40},
		{"negative checkpoint count", 4, -1},
	} {
		if _, err := decodeAll(hostileSpec(tc.nt, tc.cps)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v (want ErrCorrupt)", tc.name, err)
		}
	}
	// Trailing garbage inside a checksummed payload (CRC valid, extra
	// bytes after the last field) must be rejected as non-canonical.
	p := append(appendEventPayload(nil, &Event{Kind: EventTaskStart, JobID: 3}), 0xAA)
	frame = AppendFrame(AppendHeader(nil), FrameEvent, p)
	if _, err := decodeAll(frame); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing payload bytes: %v (want ErrCorrupt)", err)
	}
}

// checkLoggedFrames reads data the way an ingest loop does and holds, for
// every event the reader accepts, the frame FrameOf hands the log equal to
// EncodeEvent of the decoded event: logging the frame as received is
// encoding skipped, never a different record.
func checkLoggedFrames(t *testing.T, data []byte) {
	wr := NewReader(bytes.NewReader(data))
	var ev Event
	for {
		sp, err := wr.NextInto(&ev)
		if err != nil {
			if wr.FrameOf(&ev) != nil {
				t.Fatalf("FrameOf offers a frame after the error %v", err)
			}
			return
		}
		if sp != nil {
			if wr.FrameOf(&Event{JobID: sp.JobID}) != nil {
				t.Fatalf("FrameOf offers a spec frame as an event's")
			}
			continue
		}
		frame := wr.FrameOf(&ev)
		if frame == nil {
			t.Fatalf("FrameOf offers no frame for the event it decoded: %+v", ev)
		}
		plain := ev
		plain.Pooled = false
		want, err := EncodeEvent(nil, plain)
		if err != nil {
			t.Fatalf("re-encoding decoded event: %v", err)
		}
		if !bytes.Equal(frame, want) {
			t.Fatalf("frame as received diverges from its event's encoding:\n got %x\nwant %x", frame, want)
		}
		if ev.Pooled {
			PutObservation(ev.Features)
		}
		ev = Event{}
	}
}

// edgeBitEvents carries the float bit patterns the wire admits but a
// trace generator never draws: NaNs with payloads and either sign,
// negative zero, subnormals and infinities.
func edgeBitEvents() []Event {
	nanPay := math.Float64frombits(0x7ff8_0000_dead_beef)
	sNaN := math.Float64frombits(0x7ff0_0000_0000_0001)
	negNaN := math.Float64frombits(0xfff8_0000_0000_0042)
	negZero := math.Copysign(0, -1)
	return []Event{
		{Kind: EventTaskStart, JobID: 3, TaskID: 1, Time: negZero},
		{Kind: EventHeartbeat, JobID: 3, TaskID: 1, Time: nanPay, Tick: -1,
			Features: []float64{sNaN, negNaN, negZero, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1)}},
		{Kind: EventTaskFinish, JobID: 3, TaskID: 1, Time: math.Inf(1), Latency: sNaN},
		{Kind: EventJobFinish, JobID: 3, Time: math.Float64frombits(0x000f_ffff_ffff_ffff)},
	}
}

// TestFrameOf pins what the log may take as an event's record: the frame
// the last call decoded, and only when its kind, length and job are the
// event's.
func TestFrameOf(t *testing.T) {
	specs, events := goldenElements()
	events = append(events, edgeBitEvents()...)
	checkLoggedFrames(t, encodeStream(t, specs, events))

	wr := NewReader(bytes.NewReader(encodeStream(t, nil, events[1:2])))
	var ev Event
	if _, err := wr.NextInto(&ev); err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]Event{
		"another job":           {Kind: ev.Kind, JobID: ev.JobID + 1, Features: ev.Features},
		"another feature count": {Kind: ev.Kind, JobID: ev.JobID, Features: ev.Features[1:]},
		"another event kind":    {Kind: EventTaskStart, JobID: ev.JobID, Features: ev.Features},
	} {
		if wr.FrameOf(&other) != nil {
			t.Errorf("%s: FrameOf offers the decoded event's frame", name)
		}
	}
	if _, err := wr.NextInto(&ev); err != io.EOF {
		t.Fatalf("end of stream: %v", err)
	}
	if wr.FrameOf(&ev) != nil {
		t.Error("FrameOf offers a frame after io.EOF")
	}
}

// FuzzWireDecode feeds arbitrary bytes through both decode layers. The
// invariants: no panic ever; when a frame does decode, re-encoding it
// reproduces the consumed bytes exactly (canonical encoding); and every
// event frame a stream reader accepts is the frame FrameOf hands the log,
// equal to the encoding of the event it decoded to.
func FuzzWireDecode(f *testing.F) {
	specs, events := goldenElements()
	var buf bytes.Buffer
	if err := WriteDump(&buf, specs, events); err != nil {
		f.Fatal(err)
	}
	enc := buf.Bytes()
	f.Add(enc)
	var edge bytes.Buffer
	if err := WriteDump(&edge, nil, edgeBitEvents()); err != nil {
		f.Fatal(err)
	}
	f.Add(edge.Bytes())
	f.Add(enc[:len(enc)/2])
	f.Add(enc[HeaderLen:])
	mut := append([]byte(nil), enc...)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)
	f.Add([]byte("NURDWIRE\x01\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Event payloads: the decoder agrees with the Dec walk on any bytes.
		checkEventDecode(t, data)

		// Stream layer: must terminate with EOF or an error, no panics.
		if n, err := decodeAll(data); err == nil && n > 0 && len(data) < HeaderLen {
			t.Fatalf("decoded %d elements from %d bytes", n, len(data))
		}
		checkLoggedFrames(t, data)

		// Frame layer: canonical re-encode on success.
		kind, payload, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if re := AppendFrame(nil, kind, payload); !bytes.Equal(re, data[:n]) {
			t.Fatalf("frame re-encode diverges from input")
		}
		switch kind {
		case FrameSpec:
			if sp, err := DecodeSpecPayload(payload); err == nil {
				re, err := EncodeSpec(nil, sp)
				if err != nil {
					t.Fatalf("re-encoding decoded spec: %v", err)
				}
				if !bytes.Equal(re, data[:n]) {
					t.Fatalf("spec re-encode diverges from input")
				}
			}
		case FrameEvent:
			checkEventDecode(t, payload)
			if ev, err := decodeEventPayload(payload); err == nil {
				re, err := EncodeEvent(nil, ev)
				if err != nil {
					t.Fatalf("re-encoding decoded event: %v", err)
				}
				if !bytes.Equal(re, data[:n]) {
					t.Fatalf("event re-encode diverges from input")
				}
			}
		case FrameDrop:
			if jobID, err := DecodeDropPayload(payload); err == nil {
				if !bytes.Equal(EncodeDrop(nil, jobID), data[:n]) {
					t.Fatalf("drop record re-encode diverges from input")
				}
			}
		case FrameSegHeader:
			if h, err := DecodeSegHeaderPayload(payload); err == nil {
				var e Enc
				AppendSegHeaderPayload(&e, h.Stamp, h.PrevEnd)
				if !bytes.Equal(AppendFrame(nil, kind, e.B), data[:n]) {
					t.Fatalf("segment header re-encode diverges from input")
				}
			}
		}
	})
}

// decodeEventPayload decodes one event payload into a fresh Event.
func decodeEventPayload(p []byte) (Event, error) {
	var ev Event
	err := DecodeEventInto(p, &ev, nil)
	return ev, err
}
