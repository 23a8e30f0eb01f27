package main

import (
	"io"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// countFS is the wal.FS every WAL in the benchmark writes through: the
// production wal.OSFS, counting what the log asks of the kernel. The
// directories live inside the checkout (the benchmark may touch nothing
// else), so write(2) is paid in full and shows in events_per_s and
// cpu_us_per_event.
//
// fsync is counted and, unless the field says so, not issued. The issue put
// the directories on tmpfs, where fsync is free, because the sandbox's
// virtual disk is shared: with fsyncs issued, interleaved runs of
// wire_wal_ingest read 385k-586k events/s (best pass) in an hour in which
// the same runs without them read 533k-658k. The checkout has no tmpfs, so
// skipping the call is how the benchmark gets tmpfs's fsync. The traced run
// repeats the wire pass once with fsyncs issued and reports their time as
// what it is, this sandbox's disk (wal.fs_sync_ms_total).
type countFS struct {
	fsync                          bool // issue the fsyncs, not only count them
	writes, written, syncs, syncNS atomic.Int64
}

func (c *countFS) Create(name string) (wal.File, error) {
	f, err := wal.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Open(name string) (io.ReadCloser, error) { return wal.OSFS.Open(name) }
func (c *countFS) ReadDir(dir string) ([]string, error)    { return wal.OSFS.ReadDir(dir) }
func (c *countFS) Rename(oldname, newname string) error    { return wal.OSFS.Rename(oldname, newname) }
func (c *countFS) Remove(name string) error                { return wal.OSFS.Remove(name) }

func (c *countFS) SyncDir(dir string) error {
	defer c.synced(time.Now())
	if !c.fsync {
		return nil
	}
	return wal.OSFS.SyncDir(dir)
}

func (c *countFS) synced(t0 time.Time) {
	c.syncs.Add(1)
	c.syncNS.Add(int64(time.Since(t0)))
}

type countFile struct {
	wal.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	f.fs.written.Add(int64(len(p)))
	return f.File.Write(p)
}

func (f *countFile) Sync() error {
	defer f.fs.synced(time.Now())
	if !f.fs.fsync {
		return nil
	}
	return f.File.Sync()
}
