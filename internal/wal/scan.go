package wal

// walrecover.go rebuilds a Server from a WAL directory: the newest valid
// snapshot file (snap-<lsn>.snap, written by Server.CheckpointWAL or the
// automatic checkpoint policy) restored through RestoreServer, then every
// WAL record replayed in global LSN order.
//
// The log has two on-disk generations. Legacy single-stream segments
// (wal-<base>.seg) carry implicit LSNs — each opens with a wire.FrameLSNMark
// declaring its first record's LSN and record i has LSN base+i — and are
// replayed first, exactly as the pre-sharding code did, so old directories
// recover unchanged. Per-shard segments (wal-<shard>-<stamp>.seg) carry
// explicit per-record LSNs (wire.FrameRecord) because the shard streams
// interleave the global sequence; recovery reads each shard's stream
// through a cursor (validating the per-segment chain links in its
// wire.FrameSegHeader frames) and k-way merges the cursors by LSN, so records
// apply in exactly the order the live server acknowledged them — budget
// admission, per-job ordering, and counter evolution replay faithfully.
//
// Replay is exact, not best-effort — each record's LSN is compared against
// the snapshot's floor and the target job's recorded LSN, so a record is
// applied exactly once no matter where the snapshot cut fell — and it
// truncates at the first torn or corrupt frame in a stream's final segment
// (the tail a crash can legitimately leave), never applying anything beyond
// it. A gap in the log — segments missing between the snapshot floor and
// the retained tail, detected per stream through the chain links — fails
// typed with ErrGap rather than silently skipping history.
//
// Cross-stream holes are the one legitimately non-prefix crash shape:
// group-committed streams fsync independently, so a power loss can drop an
// unsynced tail from one stream while a sibling kept later records. The
// merge stops at the first missing LSN and the orphaned records beyond it
// are physically trimmed from their segments — they were inside the
// group-commit window (the loss the SyncEvery contract already admits) and
// leaving them would collide with the LSNs the reopened log assigns next.
//
// A third on-disk shape is read-only legacy: a batched-commit writer (since
// deleted) fsynced shared commit files instead of segments, so a directory
// it crashed in can hold segments that lag the commit files which actually
// acknowledged the last windows. reconcileCommitFiles (commit.go) runs
// before everything above and patches the segments back to what the commit
// fsyncs guaranteed, so the scan itself never needs to know which writer
// produced the directory.

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
	// SegmentsScanned counts WAL segment files read during replay; Streams
	// the per-shard streams the reopened log fans across.
	SegmentsScanned int
	Streams         int
	// RecordsApplied / RecordsSkipped count replayed WAL records: applied
	// mutations vs records already reflected in the snapshot (or shadowed
	// by a newer segment). RecordsOrphaned counts records for jobs that no
	// longer exist (their drop landed before the snapshot cut).
	RecordsApplied, RecordsSkipped, RecordsOrphaned int
	// RecordsTrimmed counts records physically removed beyond a cross-stream
	// hole: a power loss dropped an unsynced sibling-stream tail they
	// depended on, so they are discarded exactly as the group-commit
	// contract allows.
	RecordsTrimmed int
	// CommitFiles counts the legacy batched group-commit files
	// (commit-<stamp>.seg) found in the directory, and CommitRecords the
	// batch records replayed from them to re-materialize segment bytes
	// before the scan. Both are 0 for a per-stream-fsync directory.
	CommitFiles, CommitRecords int
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
	commit := ""
	if r.CommitFiles > 0 {
		commit = fmt.Sprintf(", %d commit files (%d batch records reconciled)", r.CommitFiles, r.CommitRecords)
	}
	return fmt.Sprintf("snapshot %s, %d segments, %d streams, %d applied, %d skipped, %d orphaned, %d trimmed%s, torn=%v, next LSN %d",
		snap, r.SegmentsScanned, r.Streams, r.RecordsApplied, r.RecordsSkipped, r.RecordsOrphaned,
		r.RecordsTrimmed, commit, r.TornTail, r.NextLSN)
}

// Scan is what scanning a WAL directory yields: the contiguous end of
// the durable history and the surviving segment inventory the reopened
// writer takes over.
type Scan struct {
	next       uint64 // one past the last contiguously recovered record
	legacySegs []Entry
	legacyEnd  uint64 // last legacy record LSN (0: none)
	legacyRecs int
	legacyTorn bool
	groups     map[int]*shardGroup
	hole       bool // a cross-stream hole stopped the merge at next
}

type shardGroup struct {
	segs []Entry
	last uint64 // last retained record LSN of the stream (post-trim)
	recs int    // records consumed from the stream by the merge
	torn bool
}

// ScanDir replays dir's whole retained log in global LSN order, feeding
// every record at or above the contiguity cursor to visit (records below it
// are counted as skipped). It validates legacy chains by segment base and
// per-shard chains by wire.FrameSegHeader links and fails typed ErrGap on
// holes in synced history. Directories left by the old batched-commit
// writer are reconciled first: surviving commit files re-materialize the
// segment bytes their fsyncs acknowledged. With repair set (Recover), the
// cross-stream orphans a power loss can leave beyond the first missing LSN
// are physically trimmed and the commit files are consumed and removed;
// without it (Verify) the directory is only read.
func ScanDir(fs FS, dir string, floor uint64, repair bool, rst *RecoveryStats,
	visit func(lsn uint64, kind wire.FrameKind, payload []byte) error) (Scan, error) {
	var scan Scan

	// Re-materialize what legacy commit files guarantee before anything
	// reads a segment: with repair the directory itself is patched back to
	// a plain per-stream layout, otherwise (Verify) the patches live in a
	// read-only overlay the rest of this scan reads through.
	fs, err := reconcileCommitFiles(fs, dir, repair, rst)
	if err != nil {
		return scan, err
	}

	legacy, err := ListSorted(fs, dir, SegPrefix, SegSuffix)
	if err != nil {
		return scan, fmt.Errorf("serve: recover: wal dir %s: %w", dir, err)
	}
	groups, err := ListShardSegs(fs, dir)
	if err != nil {
		return scan, fmt.Errorf("serve: recover: wal dir %s: %w", dir, err)
	}

	// Phase 1 — legacy single-stream segments, replayed in base order with
	// implicit LSNs. cursor is the next LSN the recovered state still
	// needs; records below it are skipped (already reflected), and a
	// segment starting beyond it is a hole in history.
	cursor := floor
	if cursor < 1 {
		cursor = 1
	}
	for _, seg := range legacy {
		if seg.Seq > cursor {
			return scan, fmt.Errorf(
				"serve: recover: %w: segment %s starts at LSN %d but records from %d are missing",
				ErrGap, seg.Name, seg.Seq, cursor)
		}
		end, torn, err := walkLegacySegment(fs, filepath.Join(dir, seg.Name), seg.Seq,
			func(lsn uint64, kind wire.FrameKind, payload []byte) error {
				scan.legacyRecs++
				if lsn < cursor {
					rst.RecordsSkipped++ // shadowed by an earlier segment's replay
					return nil
				}
				return visit(lsn, kind, payload)
			})
		rst.SegmentsScanned++
		if err != nil {
			return scan, err
		}
		if end > cursor {
			cursor = end
		}
		if torn {
			rst.TornTail = true
			scan.legacyTorn = true
		}
	}
	scan.legacySegs = legacy
	if cursor > 1 && len(legacy) > 0 {
		scan.legacyEnd = cursor - 1
	}

	// Phase 2 — per-shard streams, merged by explicit LSN. All legacy
	// records precede all per-shard records (the upgrade switches layouts
	// at a single boot), so the merge picks up exactly where phase 1
	// stopped. coveredBelow bounds the first retained segment's chain link:
	// a predecessor may legitimately be gone only if everything it held is
	// covered by the snapshot or the legacy log.
	coveredBelow := cursor
	scan.groups = make(map[int]*shardGroup)
	var cursors []*shardCursor
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	for shard, segs := range groups {
		scan.groups[shard] = &shardGroup{segs: segs}
		if len(segs) == 0 {
			continue
		}
		c := &shardCursor{fs: fs, dir: dir, shard: shard, segs: segs, coveredBelow: coveredBelow}
		if err := c.advance(); err != nil {
			return scan, err
		}
		cursors = append(cursors, c)
	}

	hole := false
	for {
		var best *shardCursor
		for _, c := range cursors {
			if !c.headOK {
				continue
			}
			if best == nil || c.headLSN < best.headLSN {
				best = c
			} else if c.headLSN == best.headLSN {
				return scan, fmt.Errorf("serve: recover: %w: LSN %d appears in both shard %d and shard %d streams",
					wire.ErrCorrupt, c.headLSN, best.shard, c.shard)
			}
		}
		if best == nil {
			break
		}
		lsn := best.headLSN
		if lsn > cursor {
			// A cross-stream hole: some sibling stream lost its unsynced
			// tail to a power loss while this stream kept later records.
			// Everything from the hole on is inside the group-commit window
			// and is discarded (and trimmed below).
			hole = true
			break
		}
		if lsn < cursor {
			rst.RecordsSkipped++
		} else {
			if err := visit(lsn, best.headKind, best.headPayload); err != nil {
				return scan, err
			}
			cursor = lsn + 1
		}
		g := scan.groups[best.shard]
		g.last = lsn
		g.recs++
		if err := best.advance(); err != nil {
			return scan, err
		}
	}
	for _, c := range cursors {
		rst.SegmentsScanned += c.segsScanned
		if c.torn {
			rst.TornTail = true
			scan.groups[c.shard].torn = true
		}
	}
	scan.hole = hole
	if hole {
		rst.TornTail = true
		if repair {
			trimmed, err := trimBeyond(fs, dir, scan.groups, cursor)
			rst.RecordsTrimmed += trimmed
			if err != nil {
				return scan, fmt.Errorf("serve: recover: trimming orphaned records beyond LSN %d: %w", cursor, err)
			}
		}
	}
	scan.next = cursor
	return scan, nil
}

// shardCursor reads one shard's segment stream in order, validating the
// per-segment chain links and surfacing records one at a time for the
// merge. Corruption in a non-final segment is a hole in synced history
// (rotation syncs a segment before its successor exists) and fails typed;
// corruption in the final segment is the torn tail a crash leaves.
type shardCursor struct {
	fs           FS
	dir          string
	shard        int
	segs         []Entry
	coveredBelow uint64 // first retained segment's prevEnd must be below this

	segIdx      int
	rc          io.ReadCloser
	wr          *wire.Reader
	chained     bool   // a previous segment of this stream was fully read
	last        uint64 // last record LSN read from this stream
	headLSN     uint64
	headKind    wire.FrameKind
	headPayload []byte
	headOK      bool
	torn        bool
	segsScanned int
}

// gapf fails the cursor's stream typed.
func (c *shardCursor) gapf(format string, args ...any) error {
	c.close()
	return fmt.Errorf("serve: recover: shard %d stream: %w: %s", c.shard, ErrGap, fmt.Sprintf(format, args...))
}

func (c *shardCursor) close() {
	if c.rc != nil {
		c.rc.Close()
		c.rc = nil
		c.wr = nil
	}
}

// tornHere handles a torn/corrupt frame at the cursor's position: legal
// (and terminal) in the stream's final segment, a typed gap anywhere else.
func (c *shardCursor) tornHere(what string, err error) error {
	final := c.segIdx == len(c.segs)-1
	c.close()
	if !final {
		return c.gapf("segment %s: %s (%v) but later segments exist", c.segs[c.segIdx].Name, what, err)
	}
	c.torn = true
	c.headOK = false
	c.segIdx = len(c.segs)
	return nil
}

// advance loads the stream's next record into the head fields, opening and
// chain-checking segments as it crosses them. headOK false means the
// stream is exhausted.
func (c *shardCursor) advance() error {
	for {
		if c.wr == nil {
			if c.segIdx >= len(c.segs) {
				c.headOK = false
				return nil
			}
			seg := c.segs[c.segIdx]
			rc, err := c.fs.Open(filepath.Join(c.dir, seg.Name))
			if err != nil {
				return fmt.Errorf("serve: recover: %w", err)
			}
			c.rc, c.wr = rc, wire.NewReader(rc)
			c.segsScanned++
			kind, payload, err := c.wr.NextFrame()
			if isTornErr(err) || (err == nil && kind != wire.FrameSegHeader) || err == io.EOF {
				// A segment that does not open with its own header cannot be
				// placed in the stream; treat it as wholly torn.
				if err := c.tornHere("unreadable segment header", err); err != nil {
					return err
				}
				continue
			}
			if err != nil {
				c.close()
				return fmt.Errorf("serve: recover: %s: %w", seg.Name, err)
			}
			h, err := wire.DecodeSegHeaderPayload(payload)
			if err != nil || h.Stamp != seg.Seq || h.Shard != c.shard {
				if err := c.tornHere("segment header does not match its name", err); err != nil {
					return err
				}
				continue
			}
			if c.chained {
				if h.PrevEnd != c.last {
					return c.gapf("segment %s chains to LSN %d but the stream's previous segment ended at %d — a segment is missing or damaged",
						seg.Name, h.PrevEnd, c.last)
				}
			} else if h.PrevEnd >= c.coveredBelow {
				return c.gapf("first retained segment %s chains to LSN %d, beyond the covered history below %d — earlier segments of this stream are missing",
					seg.Name, h.PrevEnd, c.coveredBelow)
			}
		}
		kind, payload, err := c.wr.NextFrame()
		if err == io.EOF {
			// Clean end of segment: move to the next one.
			c.close()
			c.chained = true
			c.segIdx++
			continue
		}
		if isTornErr(err) {
			if err := c.tornHere("torn or corrupt frame", err); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			name := c.segs[c.segIdx].Name
			c.close()
			return fmt.Errorf("serve: recover: %s: %w", name, err)
		}
		if kind != wire.FrameRecord {
			if err := c.tornHere(fmt.Sprintf("frame kind %d where a record was expected", kind), nil); err != nil {
				return err
			}
			continue
		}
		lsn, inner, innerPayload, err := wire.DecodeRecordPayload(payload)
		if err != nil || lsn <= c.last || lsn < c.segs[c.segIdx].Seq {
			if err := c.tornHere("record with out-of-order LSN", err); err != nil {
				return err
			}
			continue
		}
		c.last = lsn
		c.headLSN, c.headKind, c.headPayload, c.headOK = lsn, inner, innerPayload, true
		return nil
	}
}

// isTornErr classifies the read errors a crash tail legitimately produces.
func isTornErr(err error) bool {
	return errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrCorrupt) ||
		errors.Is(err, wire.ErrBadMagic) || errors.Is(err, wire.ErrVersion)
}

// trimBeyond physically removes every per-shard record at or above cut:
// whole segments whose stamp is at or above it are deleted, and the one
// straddling segment a stream can have (records increase across a stream's
// segments, so only its last sub-cut segment may straddle) is rewritten in
// place with only its sub-cut records, via a temp file renamed over the
// original. Idempotent: a crash mid-trim leaves either the original or the
// trimmed file, and the next recovery computes the same cut.
func trimBeyond(fs FS, dir string, groups map[int]*shardGroup, cut uint64) (int, error) {
	trimmed := 0
	for _, g := range groups {
		kept := g.segs[:0]
		for _, seg := range g.segs {
			if seg.Seq >= cut {
				// Every record in a stamp>=cut segment is an orphan; count
				// them before the file goes, so RecordsTrimmed reports what
				// was actually discarded.
				trimmed += countSegmentRecords(fs, dir, seg)
				if err := fs.Remove(filepath.Join(dir, seg.Name)); err != nil {
					return trimmed, err
				}
				continue
			}
			kept = append(kept, seg)
		}
		g.segs = append([]Entry(nil), kept...)
		if len(g.segs) == 0 {
			continue
		}
		n, err := trimSegment(fs, dir, g.segs[len(g.segs)-1], cut)
		trimmed += n
		if err != nil {
			return trimmed, err
		}
	}
	return trimmed, nil
}

// countSegmentRecords counts the decodable records in one segment (0 on
// any read problem — the file is about to be removed either way).
func countSegmentRecords(fs FS, dir string, seg Entry) int {
	rc, err := fs.Open(filepath.Join(dir, seg.Name))
	if err != nil {
		return 0
	}
	defer rc.Close()
	wr := wire.NewReader(rc)
	n := 0
	for {
		kind, _, err := wr.NextFrame()
		if err != nil {
			return n
		}
		if kind == wire.FrameRecord {
			n++
		}
	}
}

// trimSegment rewrites seg without its records at or above cut (a no-op if
// it has none).
func trimSegment(fs FS, dir string, seg Entry, cut uint64) (int, error) {
	path := filepath.Join(dir, seg.Name)
	rc, err := fs.Open(path)
	if err != nil {
		return 0, err
	}
	wr := wire.NewReader(rc)
	var keep []byte
	dropped := 0
	readErr := error(nil)
	for {
		kind, payload, err := wr.NextFrame()
		if err == io.EOF {
			break
		}
		if isTornErr(err) {
			break // the torn tail is dropped with the rewrite
		}
		if err != nil {
			readErr = err
			break
		}
		if kind == wire.FrameRecord {
			if lsn, _, _, derr := wire.DecodeRecordPayload(payload); derr == nil && lsn >= cut {
				dropped++
				continue
			}
		}
		if keep == nil {
			keep = wire.AppendHeader(nil)
		}
		keep = wire.AppendFrame(keep, kind, payload)
	}
	rc.Close()
	if readErr != nil {
		return 0, readErr
	}
	if dropped == 0 {
		return 0, nil
	}
	tmp := path + TmpSuffix
	f, err := fs.Create(tmp)
	if err != nil {
		return dropped, err
	}
	if _, err = f.Write(keep); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(tmp)
		return dropped, err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return dropped, err
	}
	return dropped, fs.SyncDir(dir)
}

// walkLegacySegment walks one legacy single-stream segment: base is the LSN
// the file name claims for the first record (cross-checked against the
// segment's wire.FrameLSNMark header), and record i of the segment visits with
// LSN base+i. Returns the LSN one past the last decodable record and
// whether the segment ended in a torn/corrupt frame instead of a clean EOF.
func walkLegacySegment(fs FS, path string, base uint64,
	visit func(lsn uint64, kind wire.FrameKind, payload []byte) error) (uint64, bool, error) {
	rc, err := fs.Open(path)
	if err != nil {
		return base, false, fmt.Errorf("serve: recover: %w", err)
	}
	defer rc.Close()
	wr := wire.NewReader(rc)
	lsn := base
	first := true
	for {
		kind, payload, err := wr.NextFrame()
		if err == io.EOF {
			return lsn, false, nil
		}
		if isTornErr(err) {
			// The tail a crash leaves: a partially written frame, or a
			// partially written segment header. Everything before it is
			// recovered; nothing after it is trusted.
			return lsn, true, nil
		}
		if err != nil {
			return lsn, false, fmt.Errorf("serve: recover: %s: %w", filepath.Base(path), err)
		}
		if first {
			first = false
			declared, err := wire.DecodeLSNMarkPayload(payload)
			if kind != wire.FrameLSNMark || err != nil || declared != base {
				// A segment that does not open with its own base LSN cannot
				// be placed in the sequence; treat it as wholly torn.
				return lsn, true, nil
			}
			continue
		}
		recLSN := lsn
		lsn++
		if err := visit(recLSN, kind, payload); err != nil {
			return recLSN, false, fmt.Errorf("serve: recover: %s: record at LSN %d: %w",
				filepath.Base(path), recLSN, err)
		}
	}
}
