package wal

// retire.go deletes the log a checkpoint's base covers.

import (
	"path/filepath"
)

// RetireBelow removes segments every record of which is below floor (their
// contents are covered by a durable base at floor). A segment's records end
// before its successor's stamp, so a segment retires once a successor exists
// with stamp at or below the floor; the newest segment (the open one, or the
// one the next append opens after) never retires, since without a successor
// its extent is unknown. Returns how many segments were deleted.
func (w *WAL) RetireBelow(floor uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	for len(w.segs) > 1 && w.segs[1].Seq <= floor {
		if err := w.opts.FS.Remove(filepath.Join(w.dir, w.segs[0].Name)); err != nil {
			return removed, err
		}
		w.segs = w.segs[1:]
		removed++
		w.retired.Add(1)
	}
	return removed, nil
}
