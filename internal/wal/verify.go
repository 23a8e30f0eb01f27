package wal

// verify.go is the offline WAL inspector behind `nurdserve -wal-verify`:
// it walks a WAL directory's per-shard streams exactly the way Recover
// would — refusing, as Recover does, a *.seg file of any other layout — and
// reports the recoverable LSN per shard and overall without building a
// server, replaying any mutation into predictors, or writing a byte.
// Operators use it to answer "how much of this log survives?" before (or
// instead of) a recovery, and to spot torn tails, cross-stream holes, and
// missing segments on cold storage.

import (
	"repro/internal/wire"

	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// VerifyStream summarizes one segment stream of a verified directory.
type VerifyStream struct {
	// Shard is the stream index.
	Shard int
	// Segments counts the stream's segment files; Records the decodable
	// records the merge consumed from them.
	Segments int
	Records  int
	// LastLSN is the stream's newest consumed record (0: none).
	LastLSN uint64
	// Torn reports the stream's final segment ended in a torn or corrupt
	// frame — the expected signature of a crash mid-append.
	Torn bool
}

// VerifyReport is Verify's result.
type VerifyReport struct {
	// SnapshotPath is the newest snapshot whose frames all decode (""
	// without one); SnapshotLSN its floor stamp. Verification is
	// structural: a frame-clean snapshot that fails semantic restore would
	// make Recover fall back a generation, which this offline pass cannot
	// predict without a predictor factory.
	SnapshotPath string
	SnapshotLSN  uint64
	// Streams lists the directory's segment streams in shard order.
	Streams []VerifyStream
	// Records counts decodable WAL records across all streams; Segments
	// the segment files scanned.
	Records, Segments int
	// NextLSN is the recoverable position: Recover on this directory would
	// rebuild NextLSN-1 mutations and assign NextLSN next.
	NextLSN uint64
	// TornTail reports a torn frame anywhere; Hole that the streams
	// diverge after NextLSN-1 (a power loss dropped an unsynced tail from
	// one stream while a sibling kept later records — Recover would trim
	// the orphans).
	TornTail bool
	Hole     bool
}

// String renders the report the way `nurdserve -wal-verify` prints it.
func (r VerifyReport) String() string {
	out := ""
	if r.SnapshotPath == "" {
		out = "snapshot: none (full-log replay)\n"
	} else {
		out = fmt.Sprintf("snapshot: %s (floor %d)\n", filepath.Base(r.SnapshotPath), r.SnapshotLSN)
	}
	for _, s := range r.Streams {
		torn := ""
		if s.Torn {
			torn = ", torn tail"
		}
		out += fmt.Sprintf("shard %4d: %d segments, %d records, last LSN %d%s\n",
			s.Shard, s.Segments, s.Records, s.LastLSN, torn)
	}
	hole := ""
	if r.Hole {
		hole = " (cross-stream hole beyond it; recovery trims the orphans)"
	}
	out += fmt.Sprintf("recoverable LSN: %d (%d mutations)%s", r.NextLSN, r.NextLSN-1, hole)
	return out
}

// Verify inspects the WAL directory at dir without starting a server:
// it frame-checks the newest structurally valid snapshot for the floor,
// walks every retained segment stream with the same chain and torn-tail
// rules Recover applies, and reports the recoverable LSN per stream and
// overall. Failures (ErrGap on missing mid-history segments, a *.seg file
// of another layout) surface exactly as a recovery would surface them. The directory is never
// written.
func Verify(dir string, opts Options) (VerifyReport, error) {
	opts = opts.WithDefaults()
	fs := opts.FS
	var rep VerifyReport

	snaps, err := ListSorted(fs, dir, SnapPrefix, SnapSuffix)
	if err != nil {
		return rep, fmt.Errorf("serve: wal-verify: %s: %w", dir, err)
	}
	for i := len(snaps) - 1; i >= 0 && rep.SnapshotPath == ""; i-- {
		path := filepath.Join(dir, snaps[i].Name)
		if floor, ok := snapshotFloor(fs, path); ok {
			rep.SnapshotPath, rep.SnapshotLSN = path, floor
		}
	}

	var rst RecoveryStats
	scan, err := ScanDir(fs, dir, rep.SnapshotLSN, false, &rst,
		func(lsn uint64, kind wire.FrameKind, payload []byte) error { return nil })
	if err != nil {
		return rep, err
	}
	rep.NextLSN = scan.next
	rep.Segments = rst.SegmentsScanned
	rep.TornTail = rst.TornTail
	rep.Hole = scan.hole
	shards := make([]int, 0, len(scan.groups))
	for shard := range scan.groups {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	for _, shard := range shards {
		g := scan.groups[shard]
		rep.Streams = append(rep.Streams, VerifyStream{
			Shard:    shard,
			Segments: len(g.segs),
			Records:  g.recs,
			LastLSN:  g.last,
			Torn:     g.torn,
		})
		rep.Records += g.recs
	}
	return rep, nil
}

// snapshotFloor frame-scans one snapshot file: every frame must decode
// (length, checksum) and the first must be the wire.FrameLSNMark floor stamp.
func snapshotFloor(fs FS, path string) (uint64, bool) {
	rc, err := fs.Open(path)
	if err != nil {
		return 0, false
	}
	defer rc.Close()
	wr := wire.NewReader(rc)
	var floor uint64
	first := true
	for {
		kind, payload, err := wr.NextFrame()
		if err == io.EOF {
			return floor, !first
		}
		if err != nil {
			return 0, false
		}
		if first {
			if kind != wire.FrameLSNMark {
				return 0, false
			}
			if floor, err = wire.DecodeLSNMarkPayload(payload); err != nil {
				return 0, false
			}
			first = false
		}
	}
}
