package wal

// fs.go is the log's view of the filesystem: the FS/File surface it writes
// through (the operating system in production, a fault-injecting fake under
// the crash-torture harness) and the names it gives its files inside the
// WAL directory, with the listing helpers that parse them back.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	// ReadDir lists the base names inside dir.
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
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
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

// SegName names a per-shard segment: wal-<shard>-<stamp>.seg.
func SegName(shard int, stamp uint64) string {
	return fmt.Sprintf("%s%04x-%016x%s", SegPrefix, shard, stamp, SegSuffix)
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

// ParseShardSeg parses a per-shard segment name (wal-<shard>-<stamp>.seg).
func ParseShardSeg(name string) (shard int, stamp uint64, ok bool) {
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

// ListShardSegs groups dir's per-shard segments by shard, each group in
// ascending stamp order. Any other *.seg name is a log layout this package
// does not read (an old single-stream wal-<lsn>.seg, a batched-commit
// commit-<stamp>.seg): the listing fails naming it rather than recover
// around history it cannot see. Other names are not the log's and are
// ignored.
func ListShardSegs(fs FS, dir string) (map[int][]Entry, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	groups := make(map[int][]Entry)
	for _, n := range names {
		if shard, stamp, ok := ParseShardSeg(n); ok {
			groups[shard] = append(groups[shard], Entry{Name: n, Seq: stamp})
		} else if strings.HasSuffix(n, SegSuffix) {
			return nil, fmt.Errorf("%s is not a per-shard segment (wal-<shard>-<stamp>.seg), the only log layout this build reads", n)
		}
	}
	for _, segs := range groups {
		sort.Slice(segs, func(a, b int) bool { return segs[a].Seq < segs[b].Seq })
	}
	return groups, nil
}

type Entry struct {
	Name string
	Seq  uint64
}

// writeFileDurable replaces dir/name with b: write a temp file, fsync it,
// rename it over, sync the directory. A crash at any point leaves either
// the old file or the new one, never a mix.
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
