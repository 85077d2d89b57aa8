package vstore

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/store/legacytest"
)

// The migration tests run on the per-document directory captured from
// the engine that wrote that layout (see package legacytest): snapshot
// directories, a journal that repeats snapshotted versions and ends in
// a torn record, and a journal-only document.

func TestMigrateRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	legacytest.Copy(t, dir)
	golden := legacytest.ReadGolden(t, legacytest.GoldenPath())
	ids := []string{"doc", "doc 1", "x/y"}

	count, err := Migrate(dir, diff.Options{}, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(ids) {
		t.Fatalf("migrated %d documents, want %d", count, len(ids))
	}
	// The backup is the untouched original, torn tail included.
	legacytest.CheckCopy(t, dir+".pre-migrate")

	// The migrated directory opens as a sharded store and serves what
	// the old engine served, byte for byte, deltas included.
	s, err := Open(dir, diff.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.IDs(); strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Fatalf("migrated IDs = %q, want %q", got, ids)
	}
	for _, id := range ids {
		want := golden.Versions(id)
		if got := s.Versions(id); got != want {
			t.Fatalf("%s: %d versions after migration, want %d", id, got, want)
		}
		for v := 1; v <= want; v++ {
			doc, err := s.Version(id, v)
			if err != nil {
				t.Fatalf("%s v%d: %v", id, v, err)
			}
			golden.Check(t, id, fmt.Sprintf("v%d", v), []byte(doc.String()))
			if v < want {
				d, err := s.Delta(id, v)
				if err != nil {
					t.Fatal(err)
				}
				golden.Check(t, id, fmt.Sprintf("delta%d", v), renderDelta(t, d))
			}
		}
	}
	// The migrated store keeps working: new Puts, then reopen.
	latest, _, err := s.Latest(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := changesim.Simulate(latest, changesim.Uniform(0.2, 11))
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Put(ids[0], res.New)
	if err != nil {
		t.Fatal(err)
	}
	if want := golden.Versions(ids[0]) + 1; v != want {
		t.Fatalf("post-migration Put produced v%d, want %d", v, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, diff.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Versions(ids[0]); got != v {
		t.Fatalf("after reopen %s has %d versions, want %d", ids[0], got, v)
	}
}

func TestMigrateRefusesWrongDirectories(t *testing.T) {
	// Already-sharded directory.
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put("doc", parse(t, `<a/>`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Migrate(dir, diff.Options{}, Config{}); err == nil || !strings.Contains(err.Error(), "already in sharded layout") {
		t.Fatalf("Migrate(sharded dir) = %v, want 'already in sharded layout'", err)
	}
	// Leftover backup from a previous migration blocks a rerun.
	oldDir := filepath.Join(t.TempDir(), "data")
	legacytest.Copy(t, oldDir)
	if _, err := Migrate(oldDir, diff.Options{}, Config{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	// dir is now sharded, backup exists; a rerun must refuse loudly.
	if _, err := Migrate(oldDir, diff.Options{}, Config{Shards: 2}); err == nil || !strings.Contains(err.Error(), "pre-migrate") {
		t.Fatalf("rerun after migration = %v, want backup complaint", err)
	}
}
