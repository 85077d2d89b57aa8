// Package legacytest gives tests the data captured from the
// per-document store engine before it was removed: a store directory
// in its layout, and golden digests of what that engine served.
//
// The directory (testdata/legacy) holds three documents:
//
//   - "x/y": two versions, snapshot only;
//   - "doc": a three-version snapshot plus a journal that repeats those
//     versions (a crash between snapshot and journal retirement leaves
//     that), adds version 4, and ends in a torn record for version 5;
//   - "doc 1": three versions, journal only. Its second delta moves an
//     element into an inserted element whose text the element splits.
//
// testdata/legacy.golden lists the digest of every version and delta
// the engine served for those documents, torn version excluded.
package legacytest

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// Dir returns the path of the captured directory. Tests must not
// write to it; Copy gives them a private copy.
func Dir() string { return filepath.Join(here(), "testdata", "legacy") }

// GoldenPath returns the path of the digests of the captured
// directory's versions and deltas.
func GoldenPath() string { return filepath.Join(here(), "testdata", "legacy.golden") }

func here() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Dir(file)
}

// Copy copies the captured directory into dst, creating it if needed.
func Copy(t testing.TB, dst string) {
	t.Helper()
	src := Dir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// CheckCopy fails t unless dir holds exactly the captured directory's
// files with exactly their bytes.
func CheckCopy(t testing.TB, dir string) {
	t.Helper()
	want, got := files(t, Dir()), files(t, dir)
	for rel, b := range want {
		if g, ok := got[rel]; !ok {
			t.Errorf("%s: %s missing", dir, rel)
		} else if !bytes.Equal(g, b) {
			t.Errorf("%s: %s changed", dir, rel)
		}
	}
	for rel := range got {
		if _, ok := want[rel]; !ok {
			t.Errorf("%s: unexpected %s", dir, rel)
		}
	}
}

// files reads every file below root, keyed by relative path.
func files(t testing.TB, root string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		out[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Digest is the form golden files record: hex SHA-256.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Golden is a golden digest file: one "id<TAB>artifact<TAB>digest"
// line per artifact, artifacts named v1, v2, ... for versions and
// delta1, delta2, ... for the delta from version N to N+1.
type Golden map[[2]string]string

// ReadGolden parses the golden file at path.
func ReadGolden(t testing.TB, path string) Golden {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g := make(Golden)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 3 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		g[[2]string{f[0], f[1]}] = f[2]
	}
	return g
}

// Versions returns how many versions the file records for id.
func (g Golden) Versions(id string) int {
	n := 0
	for k := range g {
		if k[0] == id && strings.HasPrefix(k[1], "v") {
			n++
		}
	}
	return n
}

// Check fails t unless b's digest is the one recorded for id's
// artifact.
func (g Golden) Check(t testing.TB, id, artifact string, b []byte) {
	t.Helper()
	want, ok := g[[2]string{id, artifact}]
	if !ok {
		t.Fatalf("no golden digest for %s %s", id, artifact)
	}
	if got := Digest(b); got != want {
		t.Fatalf("%s %s differs from the golden bytes (digest %s, want %s):\n%s", id, artifact, got, want, b)
	}
}
