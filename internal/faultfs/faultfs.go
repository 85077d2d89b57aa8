// Package faultfs provides the writable filesystem seam the store's
// durability layer writes through, plus a fault-injecting wrapper used
// by crash-recovery tests. The production implementation (OS) is a thin
// veneer over package os; Mem keeps a whole filesystem in memory, for
// stores that need no persistence; Faulty wraps any FS and deterministically
// injects short writes, fsync failures, write errors after N matching
// operations, and crash points after which every operation fails — the
// moral equivalent of the process dying mid-syscall, so tests can
// reopen the directory and assert what recovery reconstructs.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// File is the subset of *os.File the store needs for durable writes.
type File interface {
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is a writable filesystem. All paths are interpreted like package
// os does (absolute or relative to the process working directory).
type FS interface {
	// OpenFile opens path with the given os flags and permissions.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a new temporary file in dir, opened for
	// writing, with a name built from pattern as os.CreateTemp does.
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]os.DirEntry, error)
	Stat(path string) (os.FileInfo, error)
	MkdirAll(path string, perm os.FileMode) error
	Rename(oldPath, newPath string) error
	Remove(path string) error
	// Truncate cuts the file at path down to size bytes.
	Truncate(path string, size int64) error
}

// OS is the production FS: direct calls into package os.
type OS struct{}

// OpenFile implements FS.
func (OS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

// CreateTemp implements FS.
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// ReadFile implements FS.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// ReadDir implements FS.
func (OS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }

// Stat implements FS.
func (OS) Stat(path string) (os.FileInfo, error) { return os.Stat(path) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Rename implements FS.
func (OS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// Truncate implements FS.
func (OS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

// ---------------------------------------------------------------------------
// Fault injection.

// Op names a filesystem operation class for matching and counting.
type Op string

// Operation classes the wrapper distinguishes.
const (
	OpOpen     Op = "open" // OpenFile and CreateTemp
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpTruncate Op = "truncate"
	OpRead     Op = "read" // whole-file ReadFile
)

// Injection errors. A crashed filesystem fails everything with
// ErrCrashed; a fault without an explicit Err fails with ErrInjected.
var (
	ErrInjected = errors.New("faultfs: injected fault")
	ErrCrashed  = errors.New("faultfs: filesystem crashed")
)

// Fault is one injection rule. It fires on the Countdown-th operation
// (1-based) matching Op, counting across the whole filesystem.
type Fault struct {
	// Op selects which operation class the rule watches.
	Op Op
	// Countdown is how many matching operations complete normally
	// before the fault fires; 1 fires on the first match.
	Countdown int
	// ShortBytes, for write faults, is how many leading bytes of the
	// buffer still reach the underlying filesystem before the error —
	// a torn write. Zero persists nothing.
	ShortBytes int
	// Err is the error returned to the caller (ErrInjected if nil).
	Err error
	// Crash, when set, flips the filesystem into the crashed state as
	// the fault fires: every subsequent operation fails with
	// ErrCrashed, like a process that died mid-run.
	Crash bool
}

// Faulty wraps an FS with deterministic fault injection and per-op
// counters. The zero value is not usable; use Wrap.
type Faulty struct {
	base FS

	mu      sync.Mutex
	faults  []*Fault
	counts  map[Op]int
	crashed bool
}

// Wrap returns a fault-injecting filesystem over base with the given
// rules. With no rules it is a pure pass-through that counts
// operations, which lets a test measure a workload's op counts before
// replaying it with a crash at each point.
func Wrap(base FS, faults ...*Fault) *Faulty {
	return &Faulty{base: base, faults: faults, counts: make(map[Op]int)}
}

// Count returns how many operations of class op have been attempted.
func (f *Faulty) Count(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// Crashed reports whether a crash fault has fired.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step counts one operation and decides its fate: it returns the fault
// that fires on this operation (nil for none) and whether the
// filesystem is already crashed.
func (f *Faulty) step(op Op) (*Fault, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	f.counts[op]++
	for _, rule := range f.faults {
		if rule.Op != op || rule.Countdown <= 0 {
			continue
		}
		rule.Countdown--
		if rule.Countdown == 0 {
			if rule.Crash {
				f.crashed = true
			}
			return rule, nil
		}
	}
	return nil, nil
}

func (rule *Fault) err() error {
	if rule.Err != nil {
		return rule.Err
	}
	if rule.Crash {
		return ErrCrashed
	}
	return ErrInjected
}

// OpenFile implements FS.
func (f *Faulty) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	rule, err := f.step(OpOpen)
	if err != nil {
		return nil, err
	}
	if rule != nil {
		return nil, rule.err()
	}
	file, err := f.base.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, f: file}, nil
}

// CreateTemp implements FS.
func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	rule, err := f.step(OpOpen)
	if err != nil {
		return nil, err
	}
	if rule != nil {
		return nil, rule.err()
	}
	file, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, f: file}, nil
}

// ReadFile implements FS. Read faults (OpRead) model a disk whose
// sectors fail on access — the scrubber must classify such a file as
// damaged without ever seeing its bytes. Recovery reads through a
// fresh OS, so write-path crash tests are unaffected by the counting.
func (f *Faulty) ReadFile(path string) ([]byte, error) {
	rule, err := f.step(OpRead)
	if err != nil {
		return nil, err
	}
	if rule != nil {
		return nil, rule.err()
	}
	return f.base.ReadFile(path)
}

// ReadDir implements FS.
func (f *Faulty) ReadDir(path string) ([]os.DirEntry, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.base.ReadDir(path)
}

// Stat implements FS.
func (f *Faulty) Stat(path string) (os.FileInfo, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.base.Stat(path)
}

// MkdirAll implements FS.
func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	if f.Crashed() {
		return ErrCrashed
	}
	return f.base.MkdirAll(path, perm)
}

// Rename implements FS.
func (f *Faulty) Rename(oldPath, newPath string) error {
	rule, err := f.step(OpRename)
	if err != nil {
		return err
	}
	if rule != nil {
		return rule.err()
	}
	return f.base.Rename(oldPath, newPath)
}

// Remove implements FS.
func (f *Faulty) Remove(path string) error {
	rule, err := f.step(OpRemove)
	if err != nil {
		return err
	}
	if rule != nil {
		return rule.err()
	}
	return f.base.Remove(path)
}

// Truncate implements FS.
func (f *Faulty) Truncate(path string, size int64) error {
	rule, err := f.step(OpTruncate)
	if err != nil {
		return err
	}
	if rule != nil {
		return rule.err()
	}
	return f.base.Truncate(path, size)
}

// faultyFile routes file writes and syncs back through the wrapper's
// rules. A write fault may persist a prefix of the buffer (ShortBytes)
// before failing — the torn write recovery must cope with.
type faultyFile struct {
	fs *Faulty
	f  File
}

func (ff *faultyFile) Name() string { return ff.f.Name() }

func (ff *faultyFile) Write(b []byte) (int, error) {
	rule, err := ff.fs.step(OpWrite)
	if err != nil {
		return 0, err
	}
	if rule != nil {
		n := 0
		if rule.ShortBytes > 0 {
			short := rule.ShortBytes
			if short > len(b) {
				short = len(b)
			}
			n, _ = ff.f.Write(b[:short])
		}
		return n, rule.err()
	}
	return ff.f.Write(b)
}

func (ff *faultyFile) Sync() error {
	rule, err := ff.fs.step(OpSync)
	if err != nil {
		return err
	}
	if rule != nil {
		return rule.err()
	}
	return ff.f.Sync()
}

func (ff *faultyFile) Close() error {
	rule, err := ff.fs.step(OpClose)
	if err != nil {
		// Even a crashed filesystem lets the handle go; the underlying
		// file must not leak in long test runs. The injected error is
		// the one the test wants to see.
		_ = ff.f.Close()
		return err
	}
	if rule != nil {
		_ = ff.f.Close()
		return rule.err()
	}
	return ff.f.Close()
}

var _ FS = OS{}
var _ FS = (*Faulty)(nil)

// String renders the rule for test failure messages.
func (rule *Fault) String() string {
	return fmt.Sprintf("fault{%s #%d short=%d crash=%v}", rule.Op, rule.Countdown, rule.ShortBytes, rule.Crash)
}
