// Package waltest provides the fault-injecting in-memory filesystem the
// WAL crash-torture suites run on: it journals every byte-level operation
// while a workload runs, then FSAt rebuilds the filesystem exactly as a
// crash at any journaled byte offset would have left it (optionally
// dropping unsynced bytes, the power-loss storage model). Exported fields
// (Files, Synced, Journal) are deliberate — corruption tests flip bits in
// place.
package waltest

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/wal"
)

const (
	OpCreate = iota
	OpWrite
	OpRename
	OpRemove
	OpSync
)

type Op struct {
	Kind       int
	Name, Dest string
	Data       []byte
}

// MemFS implements wal.FS in memory. While recording it journals every
// operation; SetBudget arms the crash: once the cumulative written bytes
// reach the budget, the write fails mid-call (a partial write, like a
// process killed inside write(2)) and every later operation fails too.
type MemFS struct {
	mu      sync.Mutex
	Files   map[string][]byte
	Synced  map[string]int
	Journal []Op
	written int64
	budget  int64 // < 0: unlimited
	dead    bool
}

func NewMemFS() *MemFS {
	return &MemFS{Files: make(map[string][]byte), Synced: make(map[string]int), budget: -1}
}

var ErrCrashed = fmt.Errorf("memfs: crashed")

func (m *MemFS) SetBudget(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budget = n
	m.dead = false
}

func (m *MemFS) TotalWritten() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.written
}

func (m *MemFS) Create(name string) (wal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return nil, ErrCrashed
	}
	m.Files[name] = nil
	m.Synced[name] = 0
	m.Journal = append(m.Journal, Op{Kind: OpCreate, Name: name})
	return &memFile{fs: m, name: name}, nil
}

func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.Files[name]
	if !ok {
		return nil, fmt.Errorf("memfs: open %s: no such file", name)
	}
	return io.NopCloser(bytes.NewReader(append([]byte(nil), b...))), nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := dir + "/"
	var names []string
	for name := range m.Files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, strings.TrimPrefix(name, prefix))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return ErrCrashed
	}
	b, ok := m.Files[oldname]
	if !ok {
		return fmt.Errorf("memfs: rename %s: no such file", oldname)
	}
	m.Files[newname] = b
	m.Synced[newname] = m.Synced[oldname]
	delete(m.Files, oldname)
	delete(m.Synced, oldname)
	m.Journal = append(m.Journal, Op{Kind: OpRename, Name: oldname, Dest: newname})
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return ErrCrashed
	}
	if _, ok := m.Files[name]; !ok {
		return fmt.Errorf("memfs: remove %s: no such file", name)
	}
	delete(m.Files, name)
	delete(m.Synced, name)
	m.Journal = append(m.Journal, Op{Kind: OpRemove, Name: name})
	return nil
}

// SyncDir is a durability no-op here: MemFS models directory metadata
// (creates, renames, removes) as journaled by the OS and thus durable at
// the operation itself, which is the strictest-ordering interpretation the
// crash reconstruction in FSAt applies too.
func (m *MemFS) SyncDir(string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return ErrCrashed
	}
	return nil
}

type memFile struct {
	fs   *MemFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return 0, ErrCrashed
	}
	n := len(p)
	if m.budget >= 0 && m.written+int64(n) > m.budget {
		n = int(m.budget - m.written)
		m.dead = true
	}
	m.Files[f.name] = append(m.Files[f.name], p[:n]...)
	m.written += int64(n)
	m.Journal = append(m.Journal, Op{Kind: OpWrite, Name: f.name, Data: append([]byte(nil), p[:n]...)})
	if n < len(p) {
		return n, ErrCrashed
	}
	return n, nil
}

func (f *memFile) Sync() error {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return ErrCrashed
	}
	m.Synced[f.name] = len(m.Files[f.name])
	m.Journal = append(m.Journal, Op{Kind: OpSync, Name: f.name})
	return nil
}

func (f *memFile) Close() error { return nil }

// FSAt rebuilds the filesystem a crash at byte offset crash of the journal
// would have left: every operation before the crashing write applies
// (metadata operations are free — the OS journals them), the crashing
// write is cut mid-byte-stream, and nothing after it exists. With
// powerLoss, bytes written after each file's last fsync are dropped too —
// the stricter storage model where only synced data survives.
func FSAt(journal []Op, crash int64, powerLoss bool) *MemFS {
	fs := NewMemFS()
	var written int64
	for _, op := range journal {
		switch op.Kind {
		case OpCreate:
			fs.Files[op.Name] = nil
			fs.Synced[op.Name] = 0
		case OpWrite:
			n := int64(len(op.Data))
			if written+n > crash {
				fs.Files[op.Name] = append(fs.Files[op.Name], op.Data[:crash-written]...)
				written = crash
				goto done
			}
			fs.Files[op.Name] = append(fs.Files[op.Name], op.Data...)
			written += n
		case OpRename:
			fs.Files[op.Dest] = fs.Files[op.Name]
			fs.Synced[op.Dest] = fs.Synced[op.Name]
			delete(fs.Files, op.Name)
			delete(fs.Synced, op.Name)
		case OpRemove:
			delete(fs.Files, op.Name)
			delete(fs.Synced, op.Name)
		case OpSync:
			fs.Synced[op.Name] = len(fs.Files[op.Name])
		}
	}
done:
	if powerLoss {
		for name := range fs.Files {
			fs.Files[name] = fs.Files[name][:fs.Synced[name]]
		}
	}
	return fs
}
