package wal

// scan.go reads a WAL directory back: ScanDir replays every retained record
// in LSN order — for serve.Recover, after it restored the newest valid
// snapshot (snap-<lsn>.snap), and for Verify — and hands the reopened
// writer the segment inventory it takes over.
//
// The log is one stream of segments (log-<stamp>.seg) read in stamp order
// by one pass. Each segment's wire.FrameSegHeader names the LSN the log
// ended at before it, and must match where the previous segment's readable
// records ended (or, for the first retained segment, lie below the snapshot
// floor), so a missing or damaged segment fails typed with ErrGap rather
// than silently skipping history. Any other *.seg file — every earlier
// writer's layout — fails the scan with its name before a byte is read.
//
// Records carry no LSN: the k-th record of a segment has LSN stamp+k (the
// writer stamps a segment with the LSN its first record gets, and assigns
// LSNs in the order it appends frames). So the order and hole checks are
// per segment: the stamp must follow the chain end and must not skip past
// the next LSN the recovered state needs. The records below the snapshot
// floor may jump (a power loss can take a log tail the snapshot already
// covers), but a hole above it is lost history and fails ErrGap.
//
// Replay is exact, not best-effort — each record's LSN is compared against
// the snapshot's floor and the target job's recorded LSN, so a record is
// applied exactly once no matter where the snapshot cut fell. A segment
// stops at its first torn or corrupt frame: at the end of the log that is
// the tail a crash legitimately leaves, and nothing beyond it is applied;
// earlier in the log it is a tail an earlier recovery already cut, which
// the next segment's chain link proves by naming the last record before it.

import (
	"repro/internal/wire"

	"errors"
	"fmt"
	"io"
	"path/filepath"
)

// RecoveryStats summarizes a Recover pass.
type RecoveryStats struct {
	// SnapshotPath is the snapshot file the recovery restored from ("" when
	// it started empty); SnapshotLSN its floor stamp.
	SnapshotPath string
	SnapshotLSN  uint64
	// SegmentsScanned counts WAL segment files read during replay.
	SegmentsScanned int
	// RecordsApplied / RecordsSkipped count replayed WAL records: applied
	// mutations vs records already reflected in the snapshot.
	// RecordsOrphaned counts records for jobs that no longer exist (their
	// drop landed before the snapshot cut).
	RecordsApplied, RecordsSkipped, RecordsOrphaned int
	// TornTail reports that replay stopped at a torn or corrupt frame — the
	// expected signature of a crash mid-append; everything acknowledged
	// before it was recovered.
	TornTail bool
	// NextLSN is the sequence number the reopened WAL will assign next:
	// NextLSN-1 mutations are reflected in the recovered server.
	NextLSN uint64
}

func (r RecoveryStats) String() string {
	snap := "empty"
	if r.SnapshotPath != "" {
		snap = fmt.Sprintf("%s (floor %d)", filepath.Base(r.SnapshotPath), r.SnapshotLSN)
	}
	return fmt.Sprintf("snapshot %s, %d segments, %d applied, %d skipped, %d orphaned, torn=%v, next LSN %d",
		snap, r.SegmentsScanned, r.RecordsApplied, r.RecordsSkipped, r.RecordsOrphaned, r.TornTail, r.NextLSN)
}

// Scan is what scanning a WAL directory yields: the end of the durable
// history and the segment inventory the reopened writer takes over.
type Scan struct {
	next    uint64  // one past the last recovered record
	last    uint64  // where the log's chain ends: its last record, else the last header's link
	segs    []Entry // the retained segments, ascending stamp
	records int     // records read, skipped ones included
}

// ScanDir replays dir's whole retained log in LSN order, feeding every
// record at or above floor to visit (records below it are counted as
// skipped). It fails typed ErrGap on history missing above the floor, and
// a *.seg file of any other layout fails it, naming the file, before any
// segment is read. The directory is only read. repair is unused since the
// log became one stream (there is nothing left to trim); it stays because
// the benchmark module calls ScanDir with it.
func ScanDir(fs FS, dir string, floor uint64, repair bool, rst *RecoveryStats,
	visit func(lsn uint64, kind wire.FrameKind, payload []byte) error) (Scan, error) {
	segs, err := ListSegs(fs, dir)
	if err != nil {
		return Scan{}, fmt.Errorf("serve: recover: wal dir %s: %w", dir, err)
	}
	scan := Scan{next: max(floor, 1), segs: segs}
	// chained: scan.last is known — some segment header was read. Until then
	// the first retained segment may chain to anything the snapshot covers.
	chained := false
	var cut error // why the previous segment ended early, for the chain error
	for i, seg := range segs {
		rc, err := fs.Open(filepath.Join(dir, seg.Name))
		if err != nil {
			return scan, fmt.Errorf("serve: recover: %w", err)
		}
		rst.SegmentsScanned++
		torn, err := scan.segment(wire.NewReader(rc), seg, &chained, cut, rst, visit)
		rc.Close()
		if err != nil {
			return scan, err
		}
		cut = torn
		if torn != nil && i == len(segs)-1 {
			rst.TornTail = true
		}
	}
	return scan, nil
}

// gapf fails the scan typed.
func gapf(format string, args ...any) error {
	return fmt.Errorf("serve: recover: %w: %s", ErrGap, fmt.Sprintf(format, args...))
}

// segment replays one segment, returning why it ended early (a torn or
// corrupt frame; nil at a clean end) or the error that fails the scan.
func (s *Scan) segment(wr *wire.Reader, seg Entry, chained *bool, cut error, rst *RecoveryStats,
	visit func(lsn uint64, kind wire.FrameKind, payload []byte) error) (torn, err error) {
	// A segment that does not open with its own header cannot be placed in
	// the log: it contributes nothing, and the next segment's chain link
	// decides whether it held anything.
	kind, payload, err := wr.NextFrame()
	switch {
	case err == io.EOF || isTornErr(err):
		return fmt.Errorf("unreadable segment header: %v", err), nil
	case err != nil:
		return nil, fmt.Errorf("serve: recover: %s: %w", seg.Name, err)
	case kind != wire.FrameSegHeader:
		return fmt.Errorf("frame kind %d where the segment header belongs", kind), nil
	}
	h, err := wire.DecodeSegHeaderPayload(payload)
	if err != nil {
		return err, nil
	}
	if h.Stamp != seg.Seq {
		return fmt.Errorf("segment header stamp %d does not match its name", h.Stamp), nil
	}
	switch {
	case *chained && h.PrevEnd != s.last:
		why := ""
		if cut != nil {
			why = fmt.Sprintf(" (it stopped early: %v)", cut)
		}
		return nil, gapf("segment %s chains to LSN %d but the log's previous segment ended at %d%s — a segment is missing or damaged",
			seg.Name, h.PrevEnd, s.last, why)
	case !*chained && h.PrevEnd >= s.next:
		return nil, gapf("first retained segment %s chains to LSN %d, beyond the covered history below %d — earlier segments are missing",
			seg.Name, h.PrevEnd, s.next)
	case h.Stamp <= h.PrevEnd || h.Stamp > s.next:
		return nil, gapf("segment %s starts at LSN %d after LSN %d, with LSN %d the next one needed", seg.Name, h.Stamp, h.PrevEnd, s.next)
	}
	*chained = true
	s.last = h.PrevEnd
	for lsn := h.Stamp; ; lsn++ {
		kind, payload, err := wr.NextFrame()
		if err == io.EOF {
			return nil, nil
		}
		if isTornErr(err) {
			return err, nil
		}
		if err != nil {
			return nil, fmt.Errorf("serve: recover: %s: %w", seg.Name, err)
		}
		// The frame CRC covers the payload, not the kind byte: a kind turned
		// into another record kind reaches visit, whose payload decode fails.
		if kind != wire.FrameSpec && kind != wire.FrameEvent && kind != wire.FrameDrop {
			return fmt.Errorf("frame kind %d where a record was expected", kind), nil
		}
		if lsn < s.next {
			rst.RecordsSkipped++
		} else {
			if err := visit(lsn, kind, payload); err != nil {
				return nil, err
			}
			s.next = lsn + 1
		}
		s.last = lsn
		s.records++
	}
}

// isTornErr classifies the read errors a crash tail legitimately produces.
func isTornErr(err error) bool {
	return errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrCorrupt) ||
		errors.Is(err, wire.ErrBadMagic) || errors.Is(err, wire.ErrVersion)
}
