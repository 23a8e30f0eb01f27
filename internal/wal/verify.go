package wal

// verify.go is the offline WAL inspector behind `nurdserve -wal-verify`:
// it walks a WAL directory's log exactly the way Recover would — refusing,
// as Recover does, an entry of a retired layout — and reports the
// recoverable LSN without building a server, replaying any mutation into
// predictors, or writing a byte. Operators use it to answer "how much of
// this log survives?" before (or instead of) a recovery, and to spot torn
// tails and missing segments on cold storage.

import (
	"repro/internal/wire"

	"fmt"
	"path/filepath"
)

// VerifyReport is Verify's result.
type VerifyReport struct {
	// SnapshotPath is the newest base whose frames all decode as spec and
	// event frames ("" without one); SnapshotLSN its floor. Verification is
	// structural: a frame-clean base that fails to replay would make
	// Recover fall back a generation, which this offline pass cannot
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
		out = "base: none (full-log replay)\n"
	} else {
		out = fmt.Sprintf("base: %s (floor %d)\n", filepath.Base(r.SnapshotPath), r.SnapshotLSN)
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
// it frame-checks the bases for the newest structurally valid one, walks
// the retained log past its floor with the same chain and torn-tail rules
// Recover applies, and reports the recoverable LSN. Failures (ErrGap on
// missing history, an entry of a retired layout) surface exactly as a
// recovery would surface them. The directory is never written.
func Verify(dir string, opts Options) (VerifyReport, error) {
	opts = opts.WithDefaults()
	fs := opts.FS
	var rep VerifyReport

	bases, err := Snapshots(fs, dir)
	if err != nil {
		return rep, fmt.Errorf("serve: wal-verify: %s: %w", dir, err)
	}
	for i := len(bases) - 1; i >= 0 && rep.SnapshotPath == ""; i-- {
		path := filepath.Join(dir, bases[i].Name)
		if validBase(fs, path) {
			rep.SnapshotPath, rep.SnapshotLSN = path, bases[i].Seq
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

// validBase reports whether every frame of the base at path decodes (length,
// checksum) as a spec or event frame, up to a clean end of stream.
func validBase(fs FS, path string) bool {
	rc, err := fs.Open(path)
	if err != nil {
		return false
	}
	defer rc.Close()
	return eachFrame(rc, func(kind wire.FrameKind, _ []byte) error {
		if kind != wire.FrameSpec && kind != wire.FrameEvent {
			return wire.ErrCorrupt
		}
		return nil
	}) == nil
}
