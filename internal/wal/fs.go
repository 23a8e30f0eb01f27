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

// segment / snapshot file naming inside the WAL directory.
const (
	SegPrefix  = "wal-"
	SegSuffix  = ".seg"
	SnapPrefix = "snap-"
	SnapSuffix = ".snap"
	TmpSuffix  = ".tmp"
)

// SegName names a log segment: wal-0000-<stamp>.seg. The 0000 is the stream
// index of the retired multi-stream layout, whose stream 0 this layout is.
func SegName(stamp uint64) string {
	return fmt.Sprintf("%s%04x-%016x%s", SegPrefix, 0, stamp, SegSuffix)
}

func SnapName(lsn uint64) string { return fmt.Sprintf("%s%016x%s", SnapPrefix, lsn, SnapSuffix) }

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

// parseSeg parses a segment name, wal-<stream>-<stamp>.seg.
func parseSeg(name string) (stream int, stamp uint64, ok bool) {
	if !strings.HasPrefix(name, SegPrefix) || !strings.HasSuffix(name, SegSuffix) {
		return 0, 0, false
	}
	mid := name[len(SegPrefix) : len(name)-len(SegSuffix)]
	if len(mid) != 4+1+16 || mid[4] != '-' {
		return 0, 0, false
	}
	s, err := strconv.ParseUint(mid[:4], 16, 16)
	if err != nil {
		return 0, 0, false
	}
	v, err := strconv.ParseUint(mid[5:], 16, 64)
	if err != nil {
		return 0, 0, false
	}
	return int(s), v, true
}

// ListSorted returns the (name, sequence) pairs in dir matching
// prefix/suffix, in ascending sequence order.
func ListSorted(fs FS, dir, prefix, suffix string) ([]Entry, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, n := range names {
		if seq, ok := ParseSeq(n, prefix, suffix); ok {
			out = append(out, Entry{Name: n, Seq: seq})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out, nil
}

// ListSegs lists dir's log segments in ascending stamp order. Any entry of
// a log layout this package does not read fails the listing, naming it,
// rather than recover around history it cannot see: a segment of any
// stream but 0 (the multi-stream layout), any other *.seg name (an old
// single-stream wal-<lsn>.seg, a batched-commit commit-<stamp>.seg), or a
// node-<digits> entry (the multi-node layout's per-node subdirectory).
// Other names are not the log's and are ignored.
func ListSegs(fs FS, dir string) ([]Entry, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []Entry
	for _, n := range names {
		stream, stamp, ok := parseSeg(n)
		switch {
		case ok && stream == 0:
			segs = append(segs, Entry{Name: n, Seq: stamp})
		case ok:
			return nil, fmt.Errorf("%s is a segment of stream %d of the multi-stream layout, which this build no longer reads; it reads one stream, wal-0000-<stamp>.seg", n, stream)
		case strings.HasSuffix(n, SegSuffix):
			return nil, fmt.Errorf("%s is not a log segment (wal-0000-<stamp>.seg), the only log layout this build reads", n)
		case isNodeSubdir(n):
			return nil, fmt.Errorf("%s is a per-node directory of the multi-node layout, which this build no longer reads; recover it as its own -wal directory", n)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].Seq < segs[b].Seq })
	return segs, nil
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
