package wire

// wire.go is the serving layer's durable binary format: a versioned,
// length-prefixed, checksummed frame stream carrying JobSpec registrations
// and lifecycle Events — trace dumps, the HTTP ingest body, the write-ahead
// log's segments and the compacted base a checkpoint writes (which is also
// what Server.Snapshot streams). The format is designed for
// hostile inputs — every decoder bounds its allocations before making them,
// validates counts against the remaining payload, and returns typed errors
// (never panics), so the same code path serves fuzzing, corrupt dumps, and
// version-skewed peers.
//
// Layout:
//
//	stream  := header frame*
//	header  := magic[8] version:u16            ("NURDWIRE", little-endian)
//	frame   := kind:u8 len:u32 payload[len] crc:u32
//
// crc is CRC-32 (IEEE) over the payload. All integers are little-endian;
// floats are IEEE-754 bit patterns (math.Float64bits), so encode(decode(b))
// reproduces b byte for byte — the canonical-encoding property the fuzz
// harness checks.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Version is the current wire-format version. Readers reject streams
// written by any other version (no silent cross-version decoding).
//
// v2 (the WAL release): streams may carry WAL record frames. v1 dumps are
// rejected with a typed ErrVersion, not misdecoded.
//
// v3 (the async-refit release): the JobSpec payload carries the job's
// RefitMode (scratch vs warm-started refits — it must survive the WAL for
// recovery to replay refits identically). v2 streams are rejected with a
// typed ErrVersion, not misdecoded.
//
// The dump-shaped WAL release changed the log without a version bump: a
// log-<stamp>.seg segment is a dump with a FrameSegHeader after the stream
// header, and the FrameSpec/FrameEvent/FrameDrop frames that follow are
// byte for byte the frames a dump or an ingest body carries — no LSN of
// their own (a record's LSN is the segment's stamp plus its ordinal), and a
// job finish logged as the FrameEvent it arrived as. The kinds it retired
// appeared only inside the earlier writers' wal-*.seg files, which recovery
// refuses by name, so every stream a peer can see still decodes under v3.
//
// The compacted-checkpoint release retired the snapshot format the same way:
// a checkpoint's base is a plain dump of spec and event frames, and the
// snapshot kinds lived only in snap-*.snap files, which recovery refuses by
// name.
const Version uint16 = 3

// wireMagic opens every wire stream.
var wireMagic = [8]byte{'N', 'U', 'R', 'D', 'W', 'I', 'R', 'E'}

// HeaderLen is the encoded size of the stream header.
const HeaderLen = len(wireMagic) + 2

// FrameKind discriminates wire frames.
type FrameKind uint8

const (
	// FrameSpec carries one JobSpec registration.
	FrameSpec FrameKind = 1
	// FrameEvent carries one lifecycle Event.
	FrameEvent FrameKind = 2
	// FrameDrop is the WAL record of a DropJob mutation.
	FrameDrop FrameKind = 7
	// FrameSegHeader opens a WAL segment: the segment's name stamp (the LSN
	// of its first record) and the last LSN the log held before the segment
	// (the chain link recovery uses to detect missing segments).
	FrameSegHeader FrameKind = 9
	// Kinds 3 and 4 (a snapshot's job section and checkpoint view), 5 (a
	// snapshot's floor LSN mark), 6 (a compact job-finish WAL record), 8 (a
	// WAL record envelope with an explicit LSN) and 10 (a WAL commit-file
	// frame) are retired: they decode as corrupt and are never reused.
)

// frameKinds has bit k set for every live frame kind k.
const frameKinds = 1<<FrameSpec | 1<<FrameEvent | 1<<FrameDrop | 1<<FrameSegHeader

// Typed decode errors, errors.Is-matchable through every wrapping layer.
var (
	// ErrBadMagic reports a stream that does not open with the wire magic.
	ErrBadMagic = errors.New("serve/wire: bad magic")
	// ErrVersion reports a version-skewed stream (written by a different
	// Version).
	ErrVersion = errors.New("serve/wire: unsupported version")
	// ErrTruncated reports a stream or frame cut short mid-element.
	ErrTruncated = errors.New("serve/wire: truncated")
	// ErrCorrupt reports a structurally invalid frame: checksum mismatch,
	// unknown kind, oversized count, or trailing payload garbage.
	ErrCorrupt = errors.New("serve/wire: corrupt")
)

// Decoder allocation bounds. Counts above these are corruption by fiat:
// they exceed anything the serving layer produces by orders of magnitude,
// and rejecting them before allocating keeps a 12-byte hostile frame from
// requesting gigabytes.
const (
	MaxFramePayload    = 16 << 20
	MaxWireFeatures    = 1 << 16
	MaxSchemaCols      = 1 << 12
	MaxSchemaName      = 1 << 10
	MaxSnapTasks       = 1 << 22
	MaxSnapCheckpoints = 1 << 16
)

// --- primitive encoder ---

// Enc appends fixed-width little-endian primitives to a buffer.
type Enc struct{ B []byte }

func (e *Enc) U8(v uint8)   { e.B = append(e.B, v) }
func (e *Enc) U16(v uint16) { e.B = append(e.B, byte(v), byte(v>>8)) }
func (e *Enc) U32(v uint32) {
	e.B = append(e.B, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (e *Enc) U64(v uint64) {
	e.B = append(e.B, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *Enc) I64(v int64)   { e.U64(uint64(v)) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Enc) Floats(v []float64) {
	e.U32(uint32(len(v)))
	for _, f := range v {
		e.F64(f)
	}
}
func (e *Enc) Str(s string) {
	e.U16(uint16(len(s)))
	e.B = append(e.B, s...)
}

// --- primitive decoder ---

// Dec consumes a payload with sticky-error semantics: the first failure
// latches, subsequent reads return zero values, and finish reports it.
type Dec struct {
	B   []byte
	off int
	err error
}

// Err reports the latched decode error (nil while the payload is still
// decoding cleanly); Finish additionally demands full consumption.
func (d *Dec) Err() error { return d.err }

func (d *Dec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Dec) Need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.B)-d.off < n {
		d.Fail(fmt.Errorf("%w: need %d payload bytes, have %d", ErrTruncated, n, len(d.B)-d.off))
		return false
	}
	return true
}

func (d *Dec) U8() uint8 {
	if !d.Need(1) {
		return 0
	}
	v := d.B[d.off]
	d.off++
	return v
}

func (d *Dec) U16() uint16 {
	if !d.Need(2) {
		return 0
	}
	v := uint16(d.B[d.off]) | uint16(d.B[d.off+1])<<8
	d.off += 2
	return v
}

func (d *Dec) U32() uint32 {
	if !d.Need(4) {
		return 0
	}
	b := d.B[d.off:]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (d *Dec) U64() uint64 {
	if !d.Need(8) {
		return 0
	}
	b := d.B[d.off:]
	d.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// count decodes a u32 element count, rejecting values above max before any
// allocation happens.
func (d *Dec) Count(max int, what string) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if int64(n) > int64(max) {
		d.Fail(fmt.Errorf("%w: %s count %d exceeds %d", ErrCorrupt, what, n, max))
		return 0
	}
	return int(n)
}

// floats decodes a counted float64 slice (nil for an empty count, matching
// the in-memory convention for absent feature vectors).
func (d *Dec) Floats(max int, what string) []float64 {
	n := d.Count(max, what)
	if n == 0 || !d.Need(8*n) {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

func (d *Dec) Str(maxLen int) string {
	n := int(d.U16())
	if d.err != nil {
		return ""
	}
	if n > maxLen {
		d.Fail(fmt.Errorf("%w: string length %d exceeds %d", ErrCorrupt, n, maxLen))
		return ""
	}
	if !d.Need(n) {
		return ""
	}
	s := string(d.B[d.off : d.off+n])
	d.off += n
	return s
}

// finish reports the latched error, or corruption if payload bytes remain
// unconsumed (encodings are canonical: a valid payload is read exactly).
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.B) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.B)-d.off)
	}
	return nil
}

// --- payload encodings ---

// eventHeadLen is the fixed prefix of an event payload: kind u8, then JobID,
// TaskID, Time, Tick and Latency at 8 bytes each, then the u32 feature count.
// The payload's remainder is exactly 8 bytes per feature.
const eventHeadLen = 1 + 5*8 + 4

// appendEventPayload appends ev's payload to dst, growing it once.
func appendEventPayload(dst []byte, ev *Event) []byte {
	at, n := len(dst), eventHeadLen+8*len(ev.Features)
	dst = slices.Grow(dst, n)[:at+n]
	b := dst[at:]
	b[0] = uint8(ev.Kind)
	binary.LittleEndian.PutUint64(b[1:], ev.JobID)
	binary.LittleEndian.PutUint64(b[9:], uint64(ev.TaskID))
	binary.LittleEndian.PutUint64(b[17:], math.Float64bits(ev.Time))
	binary.LittleEndian.PutUint64(b[25:], uint64(ev.Tick))
	binary.LittleEndian.PutUint64(b[33:], math.Float64bits(ev.Latency))
	binary.LittleEndian.PutUint32(b[41:], uint32(len(ev.Features)))
	b = b[eventHeadLen:]
	for i, f := range ev.Features {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
	}
	return dst
}

func AppendEventPayload(e *Enc, ev *Event) { e.B = appendEventPayload(e.B, ev) }

func DecodeEventPayload(p []byte) (Event, error) {
	var ev Event
	err := DecodeEventInto(p, &ev, nil)
	return ev, err
}

// DecodeEventInto decodes an event payload into *ev. The features decode
// into buf's backing array when its capacity holds them, and into a fresh
// slice otherwise, so a caller that decodes frame after frame passes the same
// buffer back and allocates only when a wider event arrives; ev.Features then
// aliases buf until the next call. Every check runs before a feature is
// written, so a failed decode leaves *ev zero and buf untouched.
//
// The payload is fixed-layout, so it decodes with two length checks and
// straight-line loads instead of a Dec walk; the error classes and their
// precedence are the walk's (the test file keeps it as the oracle): an empty
// payload is truncated, an unknown kind is corrupt whatever follows it, a
// short head is truncated, an oversized count is corrupt before a short body
// is truncated, and bytes past the last feature are corrupt.
func DecodeEventInto(p []byte, ev *Event, buf []float64) error {
	*ev = Event{}
	if len(p) > 0 && p[0] > uint8(EventJobFinish) {
		return fmt.Errorf("%w: unknown event kind %d", ErrCorrupt, p[0])
	}
	if len(p) < eventHeadLen {
		return fmt.Errorf("%w: %d payload bytes for a %d-byte event head", ErrTruncated, len(p), eventHeadLen)
	}
	n := int(binary.LittleEndian.Uint32(p[41:]))
	if n > MaxWireFeatures {
		return fmt.Errorf("%w: features count %d exceeds %d", ErrCorrupt, n, MaxWireFeatures)
	}
	body := p[eventHeadLen:]
	if len(body) < 8*n {
		return fmt.Errorf("%w: need %d payload bytes, have %d", ErrTruncated, 8*n, len(body))
	}
	if len(body) > 8*n {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(body)-8*n)
	}
	ev.Kind = EventKind(p[0])
	ev.JobID = binary.LittleEndian.Uint64(p[1:])
	ev.TaskID = int(int64(binary.LittleEndian.Uint64(p[9:])))
	ev.Time = math.Float64frombits(binary.LittleEndian.Uint64(p[17:]))
	ev.Tick = int(int64(binary.LittleEndian.Uint64(p[25:])))
	ev.Latency = math.Float64frombits(binary.LittleEndian.Uint64(p[33:]))
	if n == 0 {
		return nil
	}
	if cap(buf) >= n {
		ev.Features = buf[:n]
	} else {
		ev.Features = make([]float64, n)
	}
	for i := range ev.Features {
		ev.Features[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return nil
}

func appendSpecPayload(e *Enc, sp *JobSpec) error {
	if len(sp.Schema) > MaxSchemaCols {
		return fmt.Errorf("serve/wire: schema of %d columns exceeds %d", len(sp.Schema), MaxSchemaCols)
	}
	// Mirror the decoder's bounds so an undecodable spec fails at encode
	// time, not when the stream is read back.
	if sp.NumTasks < 1 || sp.NumTasks > MaxSnapTasks {
		return fmt.Errorf("serve/wire: NumTasks %d outside [1,%d]", sp.NumTasks, MaxSnapTasks)
	}
	if sp.Checkpoints < 0 || sp.Checkpoints > MaxSnapCheckpoints {
		return fmt.Errorf("serve/wire: Checkpoints %d outside [0,%d]", sp.Checkpoints, MaxSnapCheckpoints)
	}
	e.U64(sp.JobID)
	e.U32(uint32(len(sp.Schema)))
	for _, col := range sp.Schema {
		if len(col) > MaxSchemaName {
			return fmt.Errorf("serve/wire: schema column name of %d bytes exceeds %d", len(col), MaxSchemaName)
		}
		e.Str(col)
	}
	e.I64(int64(sp.NumTasks))
	e.F64(sp.TauStra)
	e.F64(sp.StragglerQuantile)
	e.F64(sp.Horizon)
	e.I64(int64(sp.Checkpoints))
	e.F64(sp.WarmFrac)
	e.U64(sp.Seed)
	if sp.RefitMode > RefitWarm {
		return fmt.Errorf("serve/wire: unknown refit mode %d", sp.RefitMode)
	}
	e.U8(uint8(sp.RefitMode))
	return nil
}

// decodeSpec consumes one JobSpec (the exact field order appendSpecPayload
// writes) from d.
func decodeSpec(d *Dec) JobSpec {
	var sp JobSpec
	sp.JobID = d.U64()
	if n := d.Count(MaxSchemaCols, "schema"); n > 0 {
		sp.Schema = make([]string, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			sp.Schema = append(sp.Schema, d.Str(MaxSchemaName))
		}
	}
	// NumTasks sizes a per-job task-state slice the moment the spec reaches
	// StartJob, so an unbounded value here is an allocation bomb: a ~60-byte
	// hostile frame POSTed to /ingest must not be able to demand gigabytes.
	// Bound it (and Checkpoints) before the spec leaves the wire layer. Checkpoints 0 is legal on the wire —
	// StartJob fills in the monitoring defaults.
	nt := d.I64()
	if d.err == nil && (nt < 1 || nt > MaxSnapTasks) {
		d.Fail(fmt.Errorf("%w: NumTasks %d outside [1,%d]", ErrCorrupt, nt, MaxSnapTasks))
	}
	sp.NumTasks = int(nt)
	sp.TauStra = d.F64()
	sp.StragglerQuantile = d.F64()
	sp.Horizon = d.F64()
	cps := d.I64()
	if d.err == nil && (cps < 0 || cps > MaxSnapCheckpoints) {
		d.Fail(fmt.Errorf("%w: Checkpoints %d outside [0,%d]", ErrCorrupt, cps, MaxSnapCheckpoints))
	}
	sp.Checkpoints = int(cps)
	sp.WarmFrac = d.F64()
	sp.Seed = d.U64()
	mode := d.U8()
	if d.err == nil && mode > uint8(RefitWarm) {
		d.Fail(fmt.Errorf("%w: unknown refit mode %d", ErrCorrupt, mode))
	}
	sp.RefitMode = RefitMode(mode)
	return sp
}

func DecodeSpecPayload(p []byte) (JobSpec, error) {
	d := Dec{B: p}
	sp := decodeSpec(&d)
	return sp, d.Finish()
}

// AppendSegHeaderPayload / DecodeSegHeaderPayload carry the opening frame of
// a WAL segment (FrameSegHeader): the segment's stamp (the LSN of its first
// record; the file name repeats it) and the last LSN the log held before
// this segment (0 for the log's first segment ever).
func AppendSegHeaderPayload(e *Enc, stamp, prevEnd uint64) {
	e.U64(stamp)
	e.U64(prevEnd)
}

type SegHeader struct{ Stamp, PrevEnd uint64 }

func DecodeSegHeaderPayload(p []byte) (SegHeader, error) {
	d := Dec{B: p}
	h := SegHeader{Stamp: d.U64(), PrevEnd: d.U64()}
	return h, d.Finish()
}

// AppendDropPayload / DecodeDropPayload carry a DropJob WAL record
// (FrameDrop): just the job ID.
func AppendDropPayload(e *Enc, jobID uint64) { e.U64(jobID) }

func DecodeDropPayload(p []byte) (uint64, error) {
	d := Dec{B: p}
	jobID := d.U64()
	return jobID, d.Finish()
}

// FrameJobID returns the job a spec, event or drop frame belongs to, read
// from the fixed field that names it without decoding the rest: the log's
// compaction sorts frames by job, not by content.
func FrameJobID(kind FrameKind, p []byte) (uint64, error) {
	off := 0
	switch kind {
	case FrameSpec, FrameDrop:
	case FrameEvent:
		off = 1 // the event kind byte comes first
	default:
		return 0, fmt.Errorf("%w: frame kind %d names no job", ErrCorrupt, kind)
	}
	if len(p) < off+8 {
		return 0, fmt.Errorf("%w: %d payload bytes before the job ID", ErrTruncated, len(p))
	}
	return binary.LittleEndian.Uint64(p[off:]), nil
}

// --- framing ---

// openFrame appends a frame header whose length sealFrame fills in, so the
// payload can be built behind it in dst and checksummed where it lies.
func openFrame(dst []byte, kind FrameKind) []byte {
	return append(dst, uint8(kind), 0, 0, 0, 0)
}

// sealFrame completes the frame opened at dst[start:]: everything appended
// since openFrame is its payload.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+5:]
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// AppendFrame wraps a payload in the frame envelope.
func AppendFrame(dst []byte, kind FrameKind, payload []byte) []byte {
	return sealFrame(append(openFrame(dst, kind), payload...), len(dst))
}

// DecodeFrame parses one frame from the front of b, returning its kind,
// payload, and the number of bytes consumed. The payload aliases b.
func DecodeFrame(b []byte) (FrameKind, []byte, int, error) {
	if len(b) < 5 {
		return 0, nil, 0, fmt.Errorf("%w: %d bytes for a 5-byte frame header", ErrTruncated, len(b))
	}
	kind := FrameKind(b[0])
	if kind > FrameSegHeader || frameKinds&(1<<kind) == 0 {
		return 0, nil, 0, fmt.Errorf("%w: unknown frame kind %d", ErrCorrupt, b[0])
	}
	n := uint32(b[1]) | uint32(b[2])<<8 | uint32(b[3])<<16 | uint32(b[4])<<24
	if n > MaxFramePayload {
		return 0, nil, 0, fmt.Errorf("%w: frame payload of %d bytes exceeds %d", ErrCorrupt, n, MaxFramePayload)
	}
	total := 5 + int(n) + 4
	if len(b) < total {
		return 0, nil, 0, fmt.Errorf("%w: frame needs %d bytes, have %d", ErrTruncated, total, len(b))
	}
	payload := b[5 : 5+n]
	crc := uint32(b[5+n]) | uint32(b[5+n+1])<<8 | uint32(b[5+n+2])<<16 | uint32(b[5+n+3])<<24
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return 0, nil, 0, fmt.Errorf("%w: frame checksum %08x, computed %08x", ErrCorrupt, crc, got)
	}
	return kind, payload, total, nil
}

// EncodeEvent appends ev to dst as one complete frame.
func EncodeEvent(dst []byte, ev Event) ([]byte, error) {
	if len(ev.Features) > MaxWireFeatures {
		return dst, fmt.Errorf("serve/wire: %d features exceed %d", len(ev.Features), MaxWireFeatures)
	}
	return sealFrame(appendEventPayload(openFrame(dst, FrameEvent), &ev), len(dst)), nil
}

// EncodeSpec appends sp to dst as one complete frame.
func EncodeSpec(dst []byte, sp JobSpec) ([]byte, error) {
	e := Enc{B: openFrame(dst, FrameSpec)}
	if err := appendSpecPayload(&e, &sp); err != nil {
		return dst, err
	}
	return sealFrame(e.B, len(dst)), nil
}

// AppendHeader appends the stream header (magic + version) to dst.
func AppendHeader(dst []byte) []byte {
	e := Enc{B: append(dst, wireMagic[:]...)}
	e.U16(Version)
	return e.B
}

// DecodeHeader validates the stream header at the front of b and returns
// the bytes consumed.
func DecodeHeader(b []byte) (int, error) {
	if len(b) < HeaderLen {
		return 0, fmt.Errorf("%w: %d bytes for a %d-byte header", ErrTruncated, len(b), HeaderLen)
	}
	for i, m := range wireMagic {
		if b[i] != m {
			return 0, fmt.Errorf("%w: %q", ErrBadMagic, string(b[:len(wireMagic)]))
		}
	}
	v := uint16(b[8]) | uint16(b[9])<<8
	if v != Version {
		return 0, fmt.Errorf("%w: stream version %d, this reader speaks %d", ErrVersion, v, Version)
	}
	return HeaderLen, nil
}

// --- streaming writer / reader ---

// Writer emits a wire stream. The header is written before the first
// frame; a writer that never writes a frame emits nothing.
type Writer struct {
	w      io.Writer
	buf    []byte
	headed bool
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (ww *Writer) writeBuf() error {
	_, err := ww.w.Write(ww.buf)
	ww.buf = ww.buf[:0]
	return err
}

func (ww *Writer) head() {
	if !ww.headed {
		ww.buf = AppendHeader(ww.buf)
		ww.headed = true
	}
}

// WriteSpec emits one JobSpec frame.
func (ww *Writer) WriteSpec(sp JobSpec) error {
	ww.head()
	var err error
	// On encode failure the buffer is returned unchanged — anything already
	// queued (the unflushed stream header) stays queued for the next frame.
	if ww.buf, err = EncodeSpec(ww.buf, sp); err != nil {
		return err
	}
	return ww.writeBuf()
}

// WriteEvent emits one Event frame.
func (ww *Writer) WriteEvent(ev Event) error {
	ww.head()
	var err error
	if ww.buf, err = EncodeEvent(ww.buf, ev); err != nil {
		return err
	}
	return ww.writeBuf()
}

// readerBufLen is a Reader's initial buffer: a few dozen heartbeat frames
// per Read. A frame that does not fit grows it (see fill).
const readerBufLen = 4096

// Reader consumes a wire stream. The header is validated before the first
// frame is returned.
//
// The Reader owns one buffer, refilled from the source one Read at a time,
// and hands out each frame's payload where it lies in that buffer: a payload
// (NextFrame's, or anything aliasing it, FrameOf's frame included) is valid
// exactly until the next call on the Reader. NextInto copies what it keeps
// — decoded specs and feature slices never alias the buffer. A
// call returns the moment the frame it needs is complete and never reads
// ahead of need, so frames already received are never held back by a
// source that has stalled.
type Reader struct {
	r      io.Reader
	buf    []byte // buf[pos:end] is read but not yet consumed
	pos    int
	end    int
	err    error  // the source's error, reported once buf[pos:end] runs short
	last   []byte // the frame the last call returned, header to CRC; nil after an error
	headed bool
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, readerBufLen)}
}

// fill reads until at least need unconsumed bytes are buffered, or returns
// the source's error with fewer (bytes that arrived with an error count
// first). The caller has bounded need: the buffer grows to whatever it asks.
func (wr *Reader) fill(need int) error {
	for empty := 0; wr.end-wr.pos < need; {
		if wr.err != nil {
			return wr.err
		}
		if wr.pos > 0 || len(wr.buf) < need {
			// Move the partial frame to the front — of a larger buffer if the
			// whole one cannot fit — so the Read below has the most room.
			to := wr.buf
			if len(to) < need {
				to = make([]byte, max(need, 2*len(to)))
			}
			wr.end = copy(to, wr.buf[wr.pos:wr.end])
			wr.buf, wr.pos = to, 0
		}
		n, err := wr.r.Read(wr.buf[wr.end:])
		wr.end += n
		wr.err = err
		if n > 0 || err != nil {
			empty = 0
		} else if empty++; empty == 100 {
			wr.err = io.ErrNoProgress
		}
	}
	return nil
}

func (wr *Reader) readHeader() error {
	if err := wr.fill(HeaderLen); err != nil {
		if err == io.EOF {
			return fmt.Errorf("%w: stream header", ErrTruncated)
		}
		return err
	}
	if _, err := DecodeHeader(wr.buf[wr.pos:wr.end]); err != nil {
		return err
	}
	wr.pos += HeaderLen
	wr.headed = true
	return nil
}

// NextFrame returns the next raw frame. io.EOF marks a clean end of stream
// (a frame boundary); a cut mid-frame is ErrTruncated; any other error of
// the source is returned as it came. Frame validation (kind, length,
// checksum) is DecodeFrame's — this only sizes and fills the buffer, so the
// streaming and byte-slice decode paths cannot diverge.
func (wr *Reader) NextFrame() (FrameKind, []byte, error) {
	wr.last = nil
	if !wr.headed {
		if err := wr.readHeader(); err != nil {
			return 0, nil, err
		}
	}
	if err := wr.fill(5); err != nil {
		if err == io.EOF && wr.end > wr.pos {
			return 0, nil, fmt.Errorf("%w: frame header", ErrTruncated)
		}
		return 0, nil, err
	}
	// The length cap must hold before the buffer is sized — the one check
	// that cannot be deferred to DecodeFrame.
	n := binary.LittleEndian.Uint32(wr.buf[wr.pos+1:])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: frame payload of %d bytes exceeds %d", ErrCorrupt, n, MaxFramePayload)
	}
	total := 5 + int(n) + 4
	if err := wr.fill(total); err != nil {
		if err == io.EOF {
			return 0, nil, fmt.Errorf("%w: frame body", ErrTruncated)
		}
		return 0, nil, err
	}
	frame := wr.buf[wr.pos : wr.pos+total]
	kind, payload, _, err := DecodeFrame(frame)
	if err != nil {
		return 0, nil, err
	}
	wr.pos += total
	wr.last = frame
	return kind, payload, nil
}

// FrameOf returns the frame the last call on the Reader decoded, header
// through CRC, when it can be ev's: an event frame of ev's encoded length
// whose event kind and job are ev's. Otherwise it returns nil. The frame
// aliases the Reader's buffer and is valid until the next call on the
// Reader.
//
// The format is canonical (encode(decode(b)) == b, which FuzzWireDecode
// checks), so for an event the last call decoded and nobody has changed
// since, the frame is byte for byte EncodeEvent's: the write-ahead log
// keeps it as the event's record instead of encoding and checksumming the
// event again. The checks catch an event that was not decoded from this
// frame at all; a decoded event must not be changed before it is logged.
func (wr *Reader) FrameOf(ev *Event) []byte {
	f := wr.last
	if len(f) != 5+eventHeadLen+8*len(ev.Features)+4 || FrameKind(f[0]) != FrameEvent ||
		EventKind(f[5]) != ev.Kind || binary.LittleEndian.Uint64(f[6:]) != ev.JobID {
		return nil
	}
	return f
}

// NextInto returns the next element of a spec/event stream (a trace dump),
// decoding an event into the caller's Event (reused across iterations) with
// the feature slice drawn from the observation pool (pool.go) instead of the
// heap; a spec element is returned instead, and (sp != nil) distinguishes
// the two. io.EOF marks a clean end of stream; any other frame kind is
// rejected. Because the Event is pool-tagged, the caller MUST settle its
// ownership before the next NextInto call (PutObservation when it
// keeps nothing). On an error *ev is zero and holds no pooled slice.
// Servers apply streams with serve.Server.Feed, which reads NextFrame and
// decodes into a buffer of its own; this is the decode-only walk the
// benchmark's wire layer times.
func (wr *Reader) NextInto(ev *Event) (*JobSpec, error) {
	kind, payload, err := wr.NextFrame()
	if err != nil {
		return nil, err
	}
	switch kind {
	case FrameSpec:
		sp, err := DecodeSpecPayload(payload)
		if err != nil {
			return nil, err
		}
		return &sp, nil
	case FrameEvent:
		// Draw from the pool only when the count and the length agree, the
		// shape every decodable event has, so a hostile count draws nothing.
		var buf []float64
		if len(payload) > eventHeadLen {
			n := int(binary.LittleEndian.Uint32(payload[41:]))
			if n <= MaxWireFeatures && len(payload) == eventHeadLen+8*n {
				buf = GetObservation(n)
			}
		}
		if err := DecodeEventInto(payload, ev, buf); err != nil {
			PutObservation(buf)
			return nil, err
		}
		ev.Pooled = buf != nil
		return nil, nil
	default:
		return nil, fmt.Errorf("%w: frame kind %d in a spec/event stream", ErrCorrupt, kind)
	}
}

// WriteHeader forces the stream header out immediately (an empty dump is
// still a valid stream — header only, not zero bytes). Writing a first
// frame later does not repeat it.
func (ww *Writer) WriteHeader() error {
	ww.head()
	return ww.writeBuf()
}

// WriteDump records a serving workload: every spec first (registration
// precedes traffic, exactly as StartJob must precede Ingest), then the
// event stream in feed order. events is typically a MergeStreams result.
func WriteDump(w io.Writer, specs []JobSpec, events []Event) error {
	ww := NewWriter(w)
	if err := ww.WriteHeader(); err != nil {
		return err
	}
	for _, sp := range specs {
		if err := ww.WriteSpec(sp); err != nil {
			return err
		}
	}
	for _, ev := range events {
		if err := ww.WriteEvent(ev); err != nil {
			return err
		}
	}
	return nil
}
