package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// rawFrame is one frame as NextFrame hands it out, payload copied.
type rawFrame struct {
	kind    FrameKind
	payload []byte
}

// sliceFrames is the readers' oracle: the byte-slice walk (DecodeHeader,
// then DecodeFrame until it fails) over stream, which shares nothing with
// Reader's buffering. Its final error is io.EOF exactly when stream ends on a
// frame boundary.
func sliceFrames(stream []byte) ([]rawFrame, error) {
	off, err := DecodeHeader(stream)
	if err != nil {
		return nil, err
	}
	var frames []rawFrame
	for off < len(stream) {
		kind, payload, n, err := DecodeFrame(stream[off:])
		if err != nil {
			return frames, err
		}
		frames = append(frames, rawFrame{kind, append([]byte(nil), payload...)})
		off += n
	}
	return frames, io.EOF
}

// readFrames drains a Reader over src.
func readFrames(src io.Reader) ([]rawFrame, error) {
	wr := NewReader(src)
	var frames []rawFrame
	for {
		kind, payload, err := wr.NextFrame()
		if err != nil {
			return frames, err
		}
		frames = append(frames, rawFrame{kind, append([]byte(nil), payload...)})
	}
}

func sameFrames(a, b []rawFrame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || !bytes.Equal(a[i].payload, b[i].payload) {
			return false
		}
	}
	return true
}

var errSource = errors.New("source failed")

// goldenStreams returns the committed golden stream and one whose frames
// straddle and outgrow the reader's initial buffer.
func goldenStreams(t *testing.T) map[string][]byte {
	specs, events := goldenElements()
	golden := encodeStream(t, specs, events)
	big := AppendHeader(nil)
	var err error
	for _, n := range []int{10, readerBufLen / 8, 3, readerBufLen / 4, 0} {
		ev := Event{Kind: EventHeartbeat, JobID: 7, Features: make([]float64, n)}
		for i := range ev.Features {
			ev.Features[i] = float64(i)
		}
		if big, err = EncodeEvent(big, ev); err != nil {
			t.Fatal(err)
		}
	}
	return map[string][]byte{"golden": golden, "big-frames": big}
}

// TestReaderMatchesSliceDecode reads every golden stream, whole and cut at
// every byte, through sources that deliver it differently — all at once, a
// byte at a time, in halves, with the end-of-stream error riding on the last
// data, and failing with the source's own error where the cut falls — and
// demands the slice walk's frames and final error each time: io.EOF only at
// a frame boundary, ErrTruncated inside a frame or the header, and a
// source's own error unchanged wherever it strikes.
func TestReaderMatchesSliceDecode(t *testing.T) {
	for name, stream := range goldenStreams(t) {
		step := 1
		if len(stream) > 4096 {
			step = 7 // coprime to the 8-byte floats: every phase of a cell is cut
		}
		for cut := 0; cut <= len(stream); cut += step {
			part := stream[:cut]
			want, wantErr := sliceFrames(part)
			if wantErr != io.EOF && !errors.Is(wantErr, ErrTruncated) {
				t.Fatalf("%s cut %d: slice walk: %v", name, cut, wantErr)
			}
			for _, src := range []struct {
				name string
				wrap func(io.Reader) io.Reader
			}{
				{"bytes.Reader", func(r io.Reader) io.Reader { return r }},
				{"OneByteReader", iotest.OneByteReader},
				{"HalfReader", iotest.HalfReader},
				{"DataErrReader", iotest.DataErrReader},
			} {
				got, err := readFrames(src.wrap(bytes.NewReader(part)))
				if !sameFrames(got, want) {
					t.Fatalf("%s cut %d via %s: %d frames, slice walk %d", name, cut, src.name, len(got), len(want))
				}
				if (wantErr == io.EOF) != (err == io.EOF) || errors.Is(wantErr, ErrTruncated) != errors.Is(err, ErrTruncated) {
					t.Fatalf("%s cut %d via %s: final error %v, slice walk %v", name, cut, src.name, err, wantErr)
				}
			}
			// The source fails where the cut falls, mid-frame or not: every
			// frame before it is delivered, then its error as it came.
			for _, wrap := range []func(io.Reader) io.Reader{
				func(r io.Reader) io.Reader { return r },
				iotest.OneByteReader,
				iotest.DataErrReader, // the error arrives with the last bytes
			} {
				src := wrap(io.MultiReader(bytes.NewReader(part), iotest.ErrReader(errSource)))
				got, err := readFrames(src)
				if !sameFrames(got, want) || err != errSource {
					t.Fatalf("%s failing at %d: %d frames (want %d), error %v (want the source's own)",
						name, cut, len(got), len(want), err)
				}
			}
		}
	}
}

// TestReaderReturnsCompleteFramesBeforeReading: a frame already buffered is
// returned without touching the source again — the property a stalled
// upload's siblings rely on. The source here fails the test if it is read
// after it has delivered the stream.
func TestReaderReturnsCompleteFramesBeforeReading(t *testing.T) {
	specs, events := goldenElements()
	stream := encodeStream(t, specs, events)
	want, _ := sliceFrames(stream)
	src := &onceReader{data: stream}
	wr := NewReader(src)
	for i := range want {
		kind, payload, err := wr.NextFrame()
		if err != nil || kind != want[i].kind || !bytes.Equal(payload, want[i].payload) {
			t.Fatalf("frame %d: kind %d err %v", i, kind, err)
		}
		if src.reads != 1 {
			t.Fatalf("frame %d was buffered, yet the source was read %d times", i, src.reads)
		}
	}
	if _, _, err := wr.NextFrame(); err != io.EOF {
		t.Fatalf("after the last frame: %v", err)
	}
}

// onceReader delivers data in one Read and io.EOF afterwards, counting calls.
type onceReader struct {
	data  []byte
	reads int
}

func (r *onceReader) Read(p []byte) (int, error) {
	r.reads++
	if r.data == nil {
		return 0, io.EOF
	}
	n := copy(p, r.data)
	if n < len(r.data) {
		panic("onceReader: stream larger than the reader's buffer")
	}
	r.data = nil
	return n, nil
}

// TestReaderGrowsOnlyBelowTheCap: the buffer is sized from a frame's length
// field only after that field passed the MaxFramePayload check — a hostile
// header costs nothing — and a legal frame larger than the buffer grows it.
func TestReaderGrowsOnlyBelowTheCap(t *testing.T) {
	hostile := append(AppendHeader(nil), byte(FrameEvent), 0x01, 0x00, 0x00, 0x01) // 16 MiB + 1
	hostile = append(hostile, make([]byte, 64)...)
	wr := NewReader(bytes.NewReader(hostile))
	if _, _, err := wr.NextFrame(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("frame above the cap: %v (want ErrCorrupt)", err)
	}
	if len(wr.buf) != readerBufLen {
		t.Errorf("a rejected length grew the buffer to %d bytes", len(wr.buf))
	}

	ev := Event{Kind: EventHeartbeat, JobID: 1, Features: make([]float64, readerBufLen)}
	stream, err := EncodeEvent(AppendHeader(nil), ev)
	if err != nil {
		t.Fatal(err)
	}
	wr = NewReader(iotest.HalfReader(bytes.NewReader(stream)))
	kind, payload, err := wr.NextFrame()
	if err != nil || kind != FrameEvent || len(payload) != eventHeadLen+8*readerBufLen {
		t.Fatalf("large frame: kind %d, %d payload bytes, err %v", kind, len(payload), err)
	}
	if len(wr.buf) < len(stream)-HeaderLen {
		t.Errorf("buffer of %d bytes returned a %d-byte frame", len(wr.buf), len(stream)-HeaderLen)
	}
}

// TestReaderNoProgress: a source that keeps returning (0, nil) ends the read
// with io.ErrNoProgress instead of spinning.
func TestReaderNoProgress(t *testing.T) {
	specs, events := goldenElements()
	stream := encodeStream(t, specs, events)
	src := io.MultiReader(bytes.NewReader(stream[:HeaderLen+3]), stuckReader{})
	if _, err := readFrames(src); err != io.ErrNoProgress {
		t.Fatalf("stuck source: %v (want io.ErrNoProgress)", err)
	}
}

type stuckReader struct{}

func (stuckReader) Read([]byte) (int, error) { return 0, nil }

// countingReader counts the Reads that reach its source.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameBufferedHoldsARun: a NextFrame that FrameBuffered reported whole
// never reads the source, so every frame of a run of buffered ones — held
// as NextFrame handed them out, uncopied — is still the slice walk's frame
// when the run ends, whatever the source's Read sizes. Delivered in one
// Read, a stream is one run.
func TestFrameBufferedHoldsARun(t *testing.T) {
	for name, stream := range goldenStreams(t) {
		want, _ := sliceFrames(stream)
		for _, src := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"bytes.Reader", func(r io.Reader) io.Reader { return r }},
			{"OneByteReader", iotest.OneByteReader},
			{"HalfReader", iotest.HalfReader},
			{"DataErrReader", iotest.DataErrReader},
		} {
			c := &countingReader{r: src.wrap(bytes.NewReader(stream))}
			wr := NewReader(c)
			var run []rawFrame // payloads alias the reader's buffer
			from, runs := 0, 0
			check := func() {
				for i, f := range run {
					if w := want[from+i]; f.kind != w.kind || !bytes.Equal(f.payload, w.payload) {
						t.Fatalf("%s via %s: frame %d changed before its run ended", name, src.name, from+i)
					}
				}
				if len(run) > 0 {
					runs++
				}
				from += len(run)
				run = run[:0]
			}
			for {
				buffered := wr.FrameBuffered()
				if !buffered {
					check()
				}
				reads := c.reads
				kind, payload, err := wr.NextFrame()
				if buffered && c.reads != reads {
					t.Fatalf("%s via %s: NextFrame read the source for a buffered frame", name, src.name)
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s via %s: %v", name, src.name, err)
				}
				run = append(run, rawFrame{kind, payload})
			}
			check()
			if from != len(want) {
				t.Fatalf("%s via %s: %d frames, want %d", name, src.name, from, len(want))
			}
			if src.name == "bytes.Reader" && len(stream) <= readerBufLen && runs != 1 {
				t.Errorf("%s: a stream read in one Read made %d runs, want 1", name, runs)
			}
		}
	}
}
