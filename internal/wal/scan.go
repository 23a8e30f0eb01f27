package wal

// scan.go reads a WAL directory back: ScanDir replays every retained record
// in global LSN order — for serve.Recover, after it restored the newest
// valid snapshot (snap-<lsn>.snap), and for Verify — and hands the reopened
// writer the segment inventory it takes over.
//
// The log has one on-disk layout. Per-shard segments
// (wal-<shard>-<stamp>.seg) carry explicit per-record LSNs
// (wire.FrameRecord) because the shard streams interleave the global
// sequence; recovery reads each shard's stream through a cursor (validating
// the per-segment chain links in its wire.FrameSegHeader frames) and k-way
// merges the cursors by LSN, so records apply in exactly the order the live
// server acknowledged them — budget admission, per-job ordering, and counter
// evolution replay faithfully. Any other *.seg file (the single-stream or
// batched-commit layout of an earlier writer) fails the scan with its name
// before a byte is read or trimmed.
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
	return fmt.Sprintf("snapshot %s, %d segments, %d streams, %d applied, %d skipped, %d orphaned, %d trimmed, torn=%v, next LSN %d",
		snap, r.SegmentsScanned, r.Streams, r.RecordsApplied, r.RecordsSkipped, r.RecordsOrphaned,
		r.RecordsTrimmed, r.TornTail, r.NextLSN)
}

// Scan is what scanning a WAL directory yields: the contiguous end of
// the durable history and the surviving segment inventory the reopened
// writer takes over.
type Scan struct {
	next   uint64 // one past the last contiguously recovered record
	groups map[int]*shardGroup
	hole   bool // a cross-stream hole stopped the merge at next
}

type shardGroup struct {
	segs []Entry
	last uint64 // last retained record LSN of the stream (post-trim)
	recs int    // records consumed from the stream by the merge
	torn bool
}

// ScanDir replays dir's whole retained log in global LSN order, feeding
// every record at or above the contiguity cursor to visit (records below it
// are counted as skipped). It validates each stream's chain by its
// wire.FrameSegHeader links and fails typed ErrGap on holes in synced
// history; a *.seg file that is not a per-shard segment fails it, naming
// the file, before any segment is read. With repair set (Recover), the
// cross-stream orphans a power loss can leave beyond the first missing LSN
// are physically trimmed; without it (Verify) the directory is only read.
func ScanDir(fs FS, dir string, floor uint64, repair bool, rst *RecoveryStats,
	visit func(lsn uint64, kind wire.FrameKind, payload []byte) error) (Scan, error) {
	var scan Scan
	groups, err := ListShardSegs(fs, dir)
	if err != nil {
		return scan, fmt.Errorf("serve: recover: wal dir %s: %w", dir, err)
	}

	// cursor is the next LSN the recovered state still needs: records below
	// it are skipped (already reflected). It also bounds each stream's first
	// retained segment's chain link: a predecessor may legitimately be gone
	// only if everything it held is covered by the snapshot.
	cursor := floor
	if cursor < 1 {
		cursor = 1
	}
	scan.groups = make(map[int]*shardGroup)
	var cursors []*shardCursor
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	for shard, segs := range groups {
		scan.groups[shard] = &shardGroup{segs: segs}
		c := &shardCursor{fs: fs, dir: dir, shard: shard, segs: segs, coveredBelow: cursor}
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
	rc, err := fs.Open(filepath.Join(dir, seg.Name))
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
	return dropped, writeFileDurable(fs, dir, seg.Name, keep)
}
