package wal

// commit.go reads the one on-disk layout this package no longer writes:
// the batched cross-stream group commit. That writer (deleted; it never
// measured ahead of per-stream fsync) staged every dirty stream's unsynced
// tail into one shared commit file per window — wire.FrameCommitBatch
// records of (shard, segment stamp, offset, bytes) in commit-<stamp>.seg —
// and fsynced only that file, leaving the per-stream segments in the page
// cache until a later pass hardened them. A directory it crashed in can
// therefore hold acknowledged bytes that exist only in a commit file.
//
// Recovery reconciles before it scans: surviving commit files are replayed
// in stamp order and their extents patched over each target segment's
// durable prefix, re-materializing whatever the page cache lost. A torn or
// corrupt batch record ends the trustable patch sequence exactly like a
// torn frame ends a segment; an extent starting beyond a target's current
// length marks that target's hole (its hardened prefix ended earlier) and
// later patches for it are skipped; a target absent from the directory was
// retired by a checkpoint and its stale patches are skipped whole. With
// repair set the patched targets are rewritten durably (temp file, fsync,
// rename, dir sync) and the commit files removed — a recovered directory
// is always a plain per-stream layout — while Verify patches a read-only
// overlay and never writes a byte.

import (
	"repro/internal/wire"

	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"slices"
)

// reconcileCommitFiles replays dir's commit files (ascending stamp) and
// patches each target segment's image so the scan that follows reads the
// log as the commit fsyncs acknowledged it. Returns the FS the scan should
// read through: with repair set, patched targets are rewritten durably and
// the commit files removed, so the original FS is returned over a
// directory that is once again a plain per-stream layout; without repair
// (Verify) the patches live in a read-only overlay and the directory is
// untouched. A directory with no commit files — every directory a current
// writer produces — passes through unchanged at the cost of one listing.
func reconcileCommitFiles(fs FS, dir string, repair bool, rst *RecoveryStats) (FS, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return fs, fmt.Errorf("serve: recover: wal dir %s: %w", dir, err)
	}
	files := sortedEntries(names, CommitPrefix, SegSuffix)
	if len(files) == 0 {
		return fs, nil
	}
	rst.CommitFiles = len(files)
	type target struct {
		name    string
		content []byte
		patched bool
		missing bool // no such segment: checkpoint-retired, patches are stale
		stopped bool // an extent began past the durable prefix; the rest is the lost window
	}
	targets := map[string]*target{}
	load := func(shard int, stamp uint64) (*target, error) {
		name := SegName(shard, stamp)
		if t, ok := targets[name]; ok {
			return t, nil
		}
		t := &target{name: name}
		targets[name] = t
		if !slices.Contains(names, name) {
			// Segment creation made the directory entry durable before any
			// commit record could reference the segment, so absence means a
			// checkpoint retired it after its bytes hardened.
			t.missing = true
			return t, nil
		}
		// The segment exists, so failing to open it is an I/O error, not a
		// retirement: skipping its patches here would let repair remove the
		// commit files and with them the only copy of acknowledged bytes.
		rc, err := fs.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("serve: recover: %s: %w", name, err)
		}
		defer rc.Close()
		b, err := io.ReadAll(rc)
		if err != nil {
			return nil, fmt.Errorf("serve: recover: %s: %w", name, err)
		}
		t.content = b
		return t, nil
	}
	stop := false
	for _, cf := range files {
		if stop {
			break
		}
		rc, err := fs.Open(filepath.Join(dir, cf.Name))
		if err != nil {
			return fs, fmt.Errorf("serve: recover: %w", err)
		}
		wr := wire.NewReader(rc)
		for !stop {
			kind, payload, err := wr.NextFrame()
			if err == io.EOF {
				break
			}
			if isTornErr(err) || (err == nil && kind != wire.FrameCommitBatch) {
				// The torn tail a crash leaves mid-batch — or damage inside
				// synced history, which ends the trustable patch sequence
				// the same way a torn frame ends a segment. Nothing at or
				// past it was acknowledged by a completed commit fsync that
				// later patches could depend on, so the stop is global.
				stop = true
				break
			}
			if err != nil {
				rc.Close()
				return fs, fmt.Errorf("serve: recover: %s: %w", cf.Name, err)
			}
			cb, derr := wire.DecodeCommitBatchPayload(payload)
			if derr != nil {
				stop = true
				break
			}
			t, err := load(cb.Shard, cb.Stamp)
			if err != nil {
				rc.Close()
				return fs, err
			}
			rst.CommitRecords++
			if t.missing || t.stopped {
				continue
			}
			off := int64(cb.Off)
			if off < 0 || off > int64(len(t.content)) {
				// The extent begins past the target's current length: the
				// power loss cut this target's durable prefix earlier, so
				// this and every later extent for it (offsets only grow)
				// are beyond the hole. The bytes stay lost from the layout;
				// they replay from the commit image only if an earlier
				// extent covered them.
				t.stopped = true
				continue
			}
			end := off + int64(len(cb.Data))
			if end >= int64(len(t.content)) {
				t.content = append(t.content[:off], cb.Data...)
			} else {
				// A shorter extent over longer content: the page cache kept
				// newer bytes than this window staged. The overwrite is
				// byte-identical; the longer remainder stays.
				copy(t.content[off:end], cb.Data)
			}
			t.patched = true
		}
		rc.Close()
	}
	if !repair {
		patched := map[string][]byte{}
		for name, t := range targets {
			if t.patched {
				patched[name] = t.content
			}
		}
		if len(patched) == 0 {
			return fs, nil
		}
		return overlayFS{FS: fs, patched: patched}, nil
	}
	// Repair rewrites every patched target durably even when the patch
	// bytes matched what Open returned: after a process crash a read sees
	// the page cache, not necessarily storage, and the commit files that
	// guaranteed those bytes are about to be removed. Idempotent across
	// crashes mid-repair — either the original or the rewritten file
	// survives, and a surviving commit file just re-applies.
	for _, t := range targets {
		if !t.patched {
			continue
		}
		if err := writeFileDurable(fs, dir, t.name, t.content); err != nil {
			return fs, fmt.Errorf("serve: recover: re-materialize %s: %w", t.name, err)
		}
	}
	for _, cf := range files {
		if err := fs.Remove(filepath.Join(dir, cf.Name)); err != nil {
			return fs, fmt.Errorf("serve: recover: remove %s: %w", cf.Name, err)
		}
	}
	return fs, nil
}

// writeFileDurable replaces dir/name with b via the temp-file dance every
// rewrite in this package uses: write, fsync, rename over, sync the
// directory.
func writeFileDurable(fs FS, dir, name string, b []byte) error {
	path := filepath.Join(dir, name)
	tmp := path + TmpSuffix
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(dir)
}

// overlayFS is Verify's read-only reconciliation: Open serves the patched
// image for re-materialized segments, everything else passes through. A
// scan without repair never writes, so the mutating half of FS passes
// through unused.
type overlayFS struct {
	FS
	patched map[string][]byte
}

func (o overlayFS) Open(name string) (io.ReadCloser, error) {
	if b, ok := o.patched[filepath.Base(name)]; ok {
		return io.NopCloser(bytes.NewReader(b)), nil
	}
	return o.FS.Open(name)
}
