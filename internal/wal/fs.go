package wal

// fs.go is the log's view of the filesystem: the FS/File surface it writes
// through (the operating system in production, a fault-injecting fake under
// the crash-torture harness) and the names it gives its files inside the
// WAL directory, with the listing helpers that parse them back.

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// File is the writable half of a WAL segment.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem surface the WAL and its recovery need. Paths are
// regular slash-joined file paths; ReadDir returns base names. The default
// is the operating system (osFS); tests inject fault-carrying fakes.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	// ReadDir lists the base names inside dir, subdirectories included.
	ReadDir(dir string) ([]string, error)
	// Rename atomically moves oldname to newname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// SyncDir makes dir's entries (creates, renames, removes) durable.
	// File data fsyncs alone do not cover the directory entry: without
	// this a power loss can forget a freshly rotated segment or a
	// checkpoint rename whose *contents* were already synced.
	SyncDir(dir string) error
}

// OSFS is the production filesystem (the WithDefaults fallback), exported
// so tests and tools can list a real directory with the package's naming
// helpers.
var OSFS FS = osFS{}

// osFS is the production FS.
type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) Open(name string) (io.ReadCloser, error) {
	return os.Open(name)
}
func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil
}
func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// File naming inside the WAL directory: log segments, and the base each
// checkpoint writes — the compacted log below its floor, a plain wire dump
// of spec and event frames (GET /snapshot streams it; nurdserve -replay
// loads it). SnapPrefix and SnapSuffix name the base.
const (
	SegPrefix  = "log-"
	SegSuffix  = ".seg"
	SnapPrefix = "base-"
	SnapSuffix = ".dump"
	TmpSuffix  = ".tmp"
)

// SegName names a log segment: log-<stamp>.seg.
func SegName(stamp uint64) string { return fmt.Sprintf("%s%016x%s", SegPrefix, stamp, SegSuffix) }

// SnapName names a checkpoint's base: base-<floor>.dump.
func SnapName(floor uint64) string { return fmt.Sprintf("%s%016x%s", SnapPrefix, floor, SnapSuffix) }

func ParseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	return v, err == nil
}

// ListSorted returns the (name, sequence) pairs in dir matching
// prefix/suffix, in ascending sequence order.
func ListSorted(fs FS, dir, prefix, suffix string) ([]Entry, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	return matching(names, prefix, suffix), nil
}

func matching(names []string, prefix, suffix string) []Entry {
	var out []Entry
	for _, n := range names {
		if seq, ok := ParseSeq(n, prefix, suffix); ok {
			out = append(out, Entry{Name: n, Seq: seq})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// ListSegs lists dir's log segments in ascending stamp order. A directory
// holding an entry of a layout this package does not read fails the
// listing, naming it (see refuseRetired).
func ListSegs(fs FS, dir string) ([]Entry, error) { return listChecked(fs, dir, SegPrefix, SegSuffix) }

// Snapshots lists dir's checkpoint bases in ascending floor order, failing
// as ListSegs does.
func Snapshots(fs FS, dir string) ([]Entry, error) {
	return listChecked(fs, dir, SnapPrefix, SnapSuffix)
}

func listChecked(fs FS, dir, prefix, suffix string) ([]Entry, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	if err := refuseRetired(names); err != nil {
		return nil, err
	}
	return matching(names, prefix, suffix), nil
}

// refuseRetired fails on the first entry of a layout this build does not
// read, naming it, rather than recover around history it cannot see: any
// *.seg name but log-<stamp>.seg (an earlier writer's wal-0000-<stamp>.seg,
// wal-<k>-*.seg, wal-<lsn>.seg or commit-<stamp>.seg), a snap-*.snap file
// of the retired snapshot format, or a node-<digits> entry (the multi-node
// layout's per-node subdirectory). Other names are not the log's and are
// ignored.
func refuseRetired(names []string) error {
	for _, n := range names {
		_, ok := ParseSeq(n, SegPrefix, SegSuffix)
		switch {
		case !ok && strings.HasSuffix(n, SegSuffix):
			return fmt.Errorf("%s is a segment of an earlier log layout, which this build no longer reads; it reads log-<stamp>.seg", n)
		case strings.HasPrefix(n, "snap-") && strings.HasSuffix(n, ".snap"):
			return fmt.Errorf("%s is a snapshot of the retired snapshot format, which this build no longer reads; it reads base-<floor>.dump", n)
		case isNodeSubdir(n):
			return fmt.Errorf("%s is a per-node directory of the multi-node layout, which this build no longer reads; recover it as its own -wal directory", n)
		}
	}
	return nil
}

// isNodeSubdir reports whether name is node-<3 or more digits>, the per-node
// subdirectory the multi-node server wrote under its WAL root.
func isNodeSubdir(name string) bool {
	digits, ok := strings.CutPrefix(name, "node-")
	if !ok || len(digits) < 3 {
		return false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

type Entry struct {
	Name string
	Seq  uint64
}
