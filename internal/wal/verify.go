package wal

// verify.go is the offline WAL inspector behind `nurdserve -wal-verify`:
// it walks a WAL directory's log exactly the way Recover would — refusing,
// as Recover does, a *.seg file of any other layout — and reports the
// recoverable LSN without building a server, replaying any mutation into
// predictors, or writing a byte. Operators use it to answer "how much of
// this log survives?" before (or instead of) a recovery, and to spot torn
// tails and missing segments on cold storage.

import (
	"repro/internal/wire"

	"fmt"
	"io"
	"path/filepath"
)

// VerifyReport is Verify's result.
type VerifyReport struct {
	// SnapshotPath is the newest snapshot whose frames all decode (""
	// without one); SnapshotLSN its floor stamp. Verification is
	// structural: a frame-clean snapshot that fails semantic restore would
	// make Recover fall back a generation, which this offline pass cannot
	// predict without a predictor factory.
	SnapshotPath string
	SnapshotLSN  uint64
	// Segments counts the segment files scanned; Records the decodable
	// records read from them; LastLSN the newest of those (0: none).
	Segments, Records int
	LastLSN           uint64
	// NextLSN is the recoverable position: Recover on this directory would
	// rebuild NextLSN-1 mutations and assign NextLSN next.
	NextLSN uint64
	// TornTail reports that the log ends in a torn or corrupt frame — the
	// expected signature of a crash mid-append.
	TornTail bool
}

// String renders the report the way `nurdserve -wal-verify` prints it.
func (r VerifyReport) String() string {
	out := ""
	if r.SnapshotPath == "" {
		out = "snapshot: none (full-log replay)\n"
	} else {
		out = fmt.Sprintf("snapshot: %s (floor %d)\n", filepath.Base(r.SnapshotPath), r.SnapshotLSN)
	}
	torn := ""
	if r.TornTail {
		torn = ", torn tail"
	}
	out += fmt.Sprintf("log: %d segments, %d records, last LSN %d%s\n", r.Segments, r.Records, r.LastLSN, torn)
	out += fmt.Sprintf("recoverable LSN: %d (%d mutations)", r.NextLSN, r.NextLSN-1)
	return out
}

// Verify inspects the WAL directory at dir without starting a server:
// it frame-checks the newest structurally valid snapshot for the floor,
// walks the retained log with the same chain and torn-tail rules Recover
// applies, and reports the recoverable LSN. Failures (ErrGap on missing
// history, a *.seg file of another layout) surface exactly as a recovery
// would surface them. The directory is never written.
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
	rep.Records = scan.records
	if scan.records > 0 {
		rep.LastLSN = scan.last
	}
	rep.TornTail = rst.TornTail
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
