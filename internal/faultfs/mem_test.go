package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fsScript runs one fixed sequence of operations against fsys under
// dir and returns what each observed, with paths relative to dir and
// errors reduced to their class, so the log of one FS can be compared
// with another's.
func fsScript(fsys FS, dir string) []string {
	var log []string
	p := func(parts ...string) string { return filepath.Join(append([]string{dir}, parts...)...) }
	class := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, fs.ErrNotExist):
			return "not-exist"
		case errors.Is(err, fs.ErrExist):
			return "exist"
		default:
			return "error"
		}
	}
	note := func(what string, err error) { log = append(log, what+": "+class(err)) }
	read := func(parts ...string) {
		b, err := fsys.ReadFile(p(parts...))
		log = append(log, fmt.Sprintf("read %s: %s %q", strings.Join(parts, "/"), class(err), b))
	}
	write := func(what string, f File, s string) {
		if f == nil {
			log = append(log, what+": no file")
			return
		}
		n, err := f.Write([]byte(s))
		log = append(log, fmt.Sprintf("%s: %s %d", what, class(err), n))
	}
	open := func(what string, flag int, parts ...string) File {
		f, err := fsys.OpenFile(p(parts...), flag, 0o644)
		note(what, err)
		if err != nil {
			return nil
		}
		return f
	}
	closeFile := func(what string, f File) {
		if f != nil {
			note(what, f.Close())
		}
	}
	list := func(parts ...string) {
		ents, err := fsys.ReadDir(p(parts...))
		var names []string
		for _, e := range ents {
			names = append(names, fmt.Sprintf("%s(dir=%v)", e.Name(), e.IsDir()))
		}
		log = append(log, fmt.Sprintf("readdir %s: %s %v", strings.Join(parts, "/"), class(err), names))
	}
	stat := func(parts ...string) {
		fi, err := fsys.Stat(p(parts...))
		if err != nil {
			note("stat "+strings.Join(parts, "/"), err)
			return
		}
		size := fi.Size()
		if fi.IsDir() {
			size = -1 // a directory's size depends on the filesystem
		}
		log = append(log, fmt.Sprintf("stat %s: %s size=%d dir=%v", strings.Join(parts, "/"), fi.Name(), size, fi.IsDir()))
	}

	note("mkdirall a/b", fsys.MkdirAll(p("a", "b"), 0o755))
	note("mkdirall a/b again", fsys.MkdirAll(p("a", "b"), 0o755))
	f := open("create log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, "a", "log")
	write("write log", f, "hello")
	write("write log", f, " world")
	if f != nil {
		note("sync log", f.Sync())
	}
	closeFile("close log", f)
	if f != nil {
		write("write after close", f, "x")
		note("close twice", f.Close())
	}
	f = open("reopen log append", os.O_CREATE|os.O_WRONLY|os.O_APPEND, "a", "log")
	write("append log", f, "!")
	closeFile("close log", f)
	read("a", "log")
	open("open missing", os.O_WRONLY, "a", "missing")
	open("create in missing dir", os.O_CREATE|os.O_WRONLY, "nodir", "f")
	open("exclusive existing", os.O_CREATE|os.O_EXCL|os.O_WRONLY, "a", "log")
	f = open("overwrite at offset", os.O_WRONLY, "a", "log")
	write("write at 0", f, "HE")
	closeFile("close", f)
	read("a", "log")
	f = open("truncate on open", os.O_WRONLY|os.O_TRUNC, "a", "log")
	write("write truncated", f, "abcdef")
	closeFile("close", f)
	read("a", "log")

	// The atomic-replace idiom: temp file, fsync, rename into place.
	tf, err := fsys.CreateTemp(p("a"), ".final.tmp*")
	note("create temp", err)
	if tf != nil {
		name := filepath.Base(tf.Name())
		log = append(log, fmt.Sprintf("temp name: in dir=%v prefix=%v",
			filepath.Dir(tf.Name()) == p("a"), strings.HasPrefix(name, ".final.tmp") && len(name) > len(".final.tmp")))
		write("write temp", tf, "temp")
		note("sync temp", tf.Sync())
		note("close temp", tf.Close())
		note("rename temp", fsys.Rename(tf.Name(), p("a", "b", "final")))
	}
	read("a", "b", "final")
	read("a", "missing")
	read("a")

	stat("a", "log")
	stat("a")
	stat("a", "missing")
	note("truncate log 3", fsys.Truncate(p("a", "log"), 3))
	read("a", "log")
	note("truncate log 5", fsys.Truncate(p("a", "log"), 5))
	read("a", "log")
	note("truncate missing", fsys.Truncate(p("a", "missing"), 0))
	list("a")
	list("a", "b")
	list("missing")
	list("a", "log")

	// An open file follows its inode through a rename.
	f = open("open for rename", os.O_WRONLY|os.O_APPEND, "a", "log")
	note("rename open file", fsys.Rename(p("a", "log"), p("a", "moved")))
	write("write renamed", f, "++")
	closeFile("close renamed", f)
	read("a", "moved")
	read("a", "log")

	note("rename missing", fsys.Rename(p("a", "nope"), p("a", "x")))
	note("mkdirall c/d", fsys.MkdirAll(p("c", "d"), 0o755))
	note("rename dir onto non-empty dir", fsys.Rename(p("a"), p("c")))
	note("rename dir into itself", fsys.Rename(p("a"), p("a", "b", "inner")))
	note("rename dir", fsys.Rename(p("a"), p("e")))
	read("e", "b", "final")
	list("")
	note("rename file over file", fsys.Rename(p("e", "moved"), p("e", "b", "final")))
	read("e", "b", "final")
	note("mkdirall through file", fsys.MkdirAll(p("e", "b", "final", "x"), 0o755))
	note("remove non-empty dir", fsys.Remove(p("e")))
	note("remove file", fsys.Remove(p("e", "b", "final")))
	note("remove file twice", fsys.Remove(p("e", "b", "final")))
	note("remove empty dir", fsys.Remove(p("e", "b")))
	list("e")
	return log
}

// TestMemMatchesOS runs the same operations on the real filesystem
// and on Mem and requires identical observations.
func TestMemMatchesOS(t *testing.T) {
	want := fsScript(OS{}, t.TempDir())
	got := fsScript(&Mem{}, "/data")
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Errorf("step %d: OS %q, Mem %q", i, w, g)
		}
	}
}
