package faultfs

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Mem is an FS held entirely in memory: a tree of directories and
// files behind one mutex. Paths are cleaned and resolved from a single
// root, so "/a/b" and "a/b" name the same file. An open file keeps
// writing to its contents after the path is renamed or removed, as a
// file descriptor does. Sync is a no-op and nothing outlives the
// value. The zero value is an empty filesystem ready to use.
type Mem struct {
	mu   sync.Mutex
	root *memNode
	temp int // CreateTemp name counter
}

type memNode struct {
	dir      bool
	children map[string]*memNode // directories only
	data     []byte
	mode     os.FileMode
	modTime  time.Time
}

func newMemDir(perm os.FileMode) *memNode {
	return &memNode{dir: true, children: make(map[string]*memNode), mode: perm, modTime: time.Now()}
}

// split cleans path into its components; the root has none.
func split(path string) []string {
	p := strings.Trim(filepath.ToSlash(filepath.Clean(path)), "/")
	if p == "" || p == "." {
		return nil
	}
	return strings.Split(p, "/")
}

// lookup resolves path; the caller holds m.mu.
func (m *Mem) lookup(op, path string) (*memNode, error) {
	if m.root == nil {
		m.root = newMemDir(0o755)
	}
	n := m.root
	for _, name := range split(path) {
		if !n.dir {
			return nil, &os.PathError{Op: op, Path: path, Err: syscall.ENOTDIR}
		}
		if n = n.children[name]; n == nil {
			return nil, &os.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
		}
	}
	return n, nil
}

// parent resolves the directory holding path and path's last
// component; the caller holds m.mu.
func (m *Mem) parent(op, path string) (*memNode, string, error) {
	parts := split(path)
	if len(parts) == 0 {
		return nil, "", &os.PathError{Op: op, Path: path, Err: fs.ErrInvalid}
	}
	dir, err := m.lookup(op, strings.Join(parts[:len(parts)-1], "/"))
	if err != nil {
		return nil, "", err
	}
	if !dir.dir {
		return nil, "", &os.PathError{Op: op, Path: path, Err: syscall.ENOTDIR}
	}
	return dir, parts[len(parts)-1], nil
}

// OpenFile implements FS. O_CREATE, O_EXCL, O_TRUNC and O_APPEND
// behave as in package os.
func (m *Mem) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, name, err := m.parent("open", path)
	if err != nil {
		return nil, err
	}
	n := dir.children[name]
	switch {
	case n == nil && flag&os.O_CREATE == 0:
		return nil, &os.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	case n == nil:
		n = &memNode{mode: perm, modTime: time.Now()}
		dir.children[name] = n
	case flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, &os.PathError{Op: "open", Path: path, Err: fs.ErrExist}
	case n.dir:
		return nil, &os.PathError{Op: "open", Path: path, Err: syscall.EISDIR}
	}
	writable := flag&(os.O_WRONLY|os.O_RDWR) != 0
	if writable && flag&os.O_TRUNC != 0 {
		n.data = nil
	}
	return &memFile{fs: m, node: n, name: path, writable: writable, append: flag&os.O_APPEND != 0}, nil
}

// CreateTemp implements FS: the last "*" in pattern (or the end of
// it) becomes a counter that makes the name unused in dir.
func (m *Mem) CreateTemp(dir, pattern string) (File, error) {
	prefix, suffix := pattern, ""
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	for {
		m.mu.Lock()
		m.temp++
		name := filepath.Join(dir, prefix+strconv.Itoa(m.temp)+suffix)
		m.mu.Unlock()
		f, err := m.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

// ReadFile implements FS.
func (m *Mem) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.lookup("open", path)
	if err != nil {
		return nil, err
	}
	if n.dir {
		return nil, &os.PathError{Op: "read", Path: path, Err: syscall.EISDIR}
	}
	return append([]byte(nil), n.data...), nil
}

// ReadDir implements FS; entries are sorted by name.
func (m *Mem) ReadDir(path string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.lookup("open", path)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, &os.PathError{Op: "readdirent", Path: path, Err: syscall.ENOTDIR}
	}
	out := make([]os.DirEntry, 0, len(n.children))
	for name, c := range n.children {
		out = append(out, fs.FileInfoToDirEntry(c.info(name)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// Stat implements FS.
func (m *Mem) Stat(path string) (os.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.lookup("stat", path)
	if err != nil {
		return nil, err
	}
	return n.info(filepath.Base(path)), nil
}

// MkdirAll implements FS.
func (m *Mem) MkdirAll(path string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.lookup("mkdir", "")
	if err != nil {
		return err
	}
	for _, name := range split(path) {
		c := n.children[name]
		if c == nil {
			c = newMemDir(perm)
			n.children[name] = c
		}
		if !c.dir {
			return &os.PathError{Op: "mkdir", Path: path, Err: syscall.ENOTDIR}
		}
		n = c
	}
	return nil
}

// Rename implements FS. Like rename(2) it replaces an existing file,
// or an empty directory with a directory, and moves a directory with
// everything below it.
func (m *Mem) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	fail := func(err error) error { return &os.LinkError{Op: "rename", Old: oldPath, New: newPath, Err: err} }
	odir, oname, err := m.parent("rename", oldPath)
	if err != nil {
		return fail(fs.ErrNotExist)
	}
	n := odir.children[oname]
	if n == nil {
		return fail(fs.ErrNotExist)
	}
	ndir, nname, err := m.parent("rename", newPath)
	if err != nil {
		return fail(fs.ErrNotExist)
	}
	if ndir == odir && nname == oname {
		return nil
	}
	if n.dir && strings.HasPrefix(strings.Join(split(newPath), "/")+"/", strings.Join(split(oldPath), "/")+"/") {
		return fail(syscall.EINVAL)
	}
	if dst := ndir.children[nname]; dst != nil {
		switch {
		case dst.dir && !n.dir:
			return fail(syscall.EISDIR)
		case !dst.dir && n.dir:
			return fail(syscall.ENOTDIR)
		case dst.dir && len(dst.children) > 0:
			return fail(syscall.ENOTEMPTY)
		}
	}
	delete(odir.children, oname)
	ndir.children[nname] = n
	return nil
}

// Remove implements FS: a file, or an empty directory.
func (m *Mem) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, name, err := m.parent("remove", path)
	if err != nil {
		return err
	}
	n := dir.children[name]
	switch {
	case n == nil:
		return &os.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	case n.dir && len(n.children) > 0:
		return &os.PathError{Op: "remove", Path: path, Err: syscall.ENOTEMPTY}
	}
	delete(dir.children, name)
	return nil
}

// Truncate implements FS; growing a file pads it with zeros.
func (m *Mem) Truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.lookup("truncate", path)
	if err != nil {
		return err
	}
	if n.dir {
		return &os.PathError{Op: "truncate", Path: path, Err: syscall.EISDIR}
	}
	if size < 0 {
		return &os.PathError{Op: "truncate", Path: path, Err: syscall.EINVAL}
	}
	n.resize(size)
	return nil
}

func (n *memNode) resize(size int64) {
	if size <= int64(len(n.data)) {
		n.data = n.data[:size]
		return
	}
	n.data = append(n.data, make([]byte, size-int64(len(n.data)))...)
}

func (n *memNode) info(name string) os.FileInfo {
	mode := n.mode.Perm()
	if n.dir {
		mode |= fs.ModeDir
	}
	return memInfo{name: name, size: int64(len(n.data)), mode: mode, modTime: n.modTime}
}

type memInfo struct {
	name    string
	size    int64
	mode    os.FileMode
	modTime time.Time
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() os.FileMode  { return i.mode }
func (i memInfo) ModTime() time.Time { return i.modTime }
func (i memInfo) IsDir() bool        { return i.mode.IsDir() }
func (i memInfo) Sys() any           { return nil }

// memFile is an open file of a Mem: it writes at its own offset, or
// at the end under O_APPEND.
type memFile struct {
	fs       *Mem
	node     *memNode
	name     string
	off      int64
	writable bool
	append   bool
	closed   bool
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Write(b []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch {
	case f.closed:
		return 0, &os.PathError{Op: "write", Path: f.name, Err: os.ErrClosed}
	case !f.writable:
		return 0, &os.PathError{Op: "write", Path: f.name, Err: syscall.EBADF}
	}
	if f.append {
		f.off = int64(len(f.node.data))
	}
	if end := f.off + int64(len(b)); end > int64(len(f.node.data)) {
		f.node.resize(end)
	}
	copy(f.node.data[f.off:], b)
	f.off += int64(len(b))
	f.node.modTime = time.Now()
	return len(b), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return &os.PathError{Op: "sync", Path: f.name, Err: os.ErrClosed}
	}
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return &os.PathError{Op: "close", Path: f.name, Err: os.ErrClosed}
	}
	f.closed = true
	return nil
}

var _ FS = (*Mem)(nil)
