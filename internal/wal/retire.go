package wal

// retire.go deletes the log a checkpoint's snapshot covers: each stream's
// segments, and the read-only groups recovery handed over.

import (
	"path/filepath"
)

// roSegGroup is a read-only segment group: the stream of a shard index at
// or beyond the writer's fan-out (a directory written at a higher stream
// count). Its files are retained only until a checkpoint floor covers them.
// end is the group's last record LSN (0 when the group holds no records).
type roSegGroup struct {
	segs []Entry
	end  uint64
}

// RetireBelow removes segments every record of which is below floor (their
// contents are covered by a durable snapshot stamped at floor). A stream
// segment's records end before its successor's stamp, so a segment retires
// once a successor exists with stamp at or below the floor; open segments
// and each stream's newest segment never retire (without a successor the
// newest segment's extent is unknown). Read-only groups (out-of-range shard
// streams) retire by the same successor rule, with each group's final
// segment retiring once the group end recovery recorded is covered. Returns
// how many segments were deleted.
func (w *WAL) RetireBelow(floor uint64) (int, error) {
	removed := 0
	for _, s := range w.streams {
		s.mu.Lock()
		n, err := retireGroup(w, &s.segs, 0, floor, s)
		s.mu.Unlock()
		removed += n
		if err != nil {
			return removed, err
		}
	}
	w.roMu.Lock()
	defer w.roMu.Unlock()
	for _, g := range w.ro {
		n, err := retireGroup(w, &g.segs, g.end, floor, nil)
		removed += n
		if err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// retireGroup removes the retirable prefix of one segment group: entries
// whose successor's sequence is at or below floor, plus — when the group's
// end LSN is known — a final entry wholly below the floor. open, when
// non-nil, protects the stream's open segment. The caller holds the lock
// covering segs.
func retireGroup(w *WAL, segs *[]Entry, end, floor uint64, open *walStream) (int, error) {
	removed := 0
	for len(*segs) > 0 {
		seg := (*segs)[0]
		covered := false
		if len(*segs) > 1 {
			covered = (*segs)[1].Seq <= floor
		} else {
			covered = end > 0 && end < floor
		}
		if !covered || (open != nil && open.f != nil && seg.Seq == open.stamp) {
			break
		}
		if err := w.opts.FS.Remove(filepath.Join(w.dir, seg.Name)); err != nil {
			return removed, err
		}
		*segs = (*segs)[1:]
		removed++
		w.retired.Add(1)
	}
	return removed, nil
}
