package vstore

import (
	"fmt"
	"os"

	"xydiff/internal/diff"
	"xydiff/internal/faultfs"
	"xydiff/internal/store"
)

// Migration converts a per-document store directory (the layout that
// came before this engine: journal-*.log files plus one snapshot
// directory per document, read by store.Load) into the sharded segment
// layout, without re-diffing anything: each document's base version
// and delta chain are carried over verbatim, so every reconstruction stays byte-identical. The
// conversion is built beside the original and swapped in with two
// renames, keeping the original as a backup:
//
//	DIR.migrating    the new layout, built from scratch (removed and
//	                 rebuilt if a previous attempt died)
//	DIR.pre-migrate  the untouched original, renamed here on success
//
// A crash before the first rename leaves DIR untouched; between the
// renames, DIR.migrating is complete and DIR is the backup — rerunning
// Migrate reports what to do.

// Import installs a document wholesale: serialized base version plus
// delta chain, written straight to the document's snapshot (no
// segment records, no re-diffing). It is the migration path's way to
// carry a chain over byte-identically; it refuses to overwrite an
// existing document.
func (s *Store) Import(id string, base []byte, deltas [][]byte) error {
	if len(base) == 0 {
		return fmt.Errorf("vstore: import %s: empty base version", id)
	}
	sh := s.shardFor(id)
	st := sh.state(id)
	st.mu.Lock()
	if st.versions != 0 {
		st.mu.Unlock()
		return fmt.Errorf("vstore: import %s: document already exists with %d versions", id, st.versions)
	}
	st.base = append([]byte(nil), base...)
	for _, d := range deltas {
		st.deltas = append(st.deltas, append([]byte(nil), d...))
	}
	st.versions = 1 + len(deltas)
	st.mu.Unlock()
	if err := s.snapshotDoc(sh, id, st, false); err != nil {
		return fmt.Errorf("vstore: import %s: %w", id, err)
	}
	return nil
}

// Migrate converts the per-document store at dir into the sharded
// layout in place: the new store is built under dir+".migrating",
// verified, and swapped in, with the original kept at
// dir+".pre-migrate" as the backup/abort path (remove it once
// satisfied, or rename it back over dir to abort). Returns the
// document count carried over.
func Migrate(dir string, opts diff.Options, cfg Config) (int, error) {
	fsys := cfg.withDefaults().FS
	backup := dir + ".pre-migrate"
	tmp := dir + ".migrating"
	if _, err := fsys.Stat(backup); err == nil {
		return 0, fmt.Errorf("vstore: migrate %s: backup %s already exists — a previous migration finished (remove the backup) or needs aborting (rename it back over %s)", dir, backup, dir)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: %w", dir, err)
	}
	if _, err := fsys.Stat(manifestPath(dir)); err == nil {
		return 0, fmt.Errorf("vstore: migrate %s: already in sharded layout", dir)
	}
	if !oldLayout(fsys, dir, entries) {
		return 0, fmt.Errorf("vstore: migrate %s: not a per-document store directory", dir)
	}
	// The read-only legacy loader replays the journals in memory, so
	// exactly the acknowledged state carries over and the original
	// stays byte-identical as the backup.
	chains, _, err := store.Load(fsys, dir)
	if err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: load old store: %w", dir, err)
	}
	if err := removeAll(fsys, tmp); err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: clear stale %s: %w", dir, tmp, err)
	}
	next, err := Open(tmp, opts, cfg)
	if err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: create new layout: %w", dir, err)
	}
	for _, c := range chains {
		if err := next.Import(c.ID, c.Base, c.Deltas); err != nil {
			_ = next.Close() // the import error is the one worth reporting
			return 0, err
		}
	}
	if err := next.Close(); err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: close new layout: %w", dir, err)
	}
	// The swap: original aside first, then the new layout into place.
	// A crash in between leaves both directories present and intact.
	if err := fsys.Rename(dir, backup); err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: move original aside: %w", dir, err)
	}
	if err := fsys.Rename(tmp, dir); err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: install new layout (original preserved at %s): %w", dir, backup, err)
	}
	return len(chains), nil
}

func manifestPath(dir string) string { return dir + string(os.PathSeparator) + manifestName }

// removeAll removes path recursively through fsys (faultfs has no
// RemoveAll; migration only ever removes its own stale .migrating
// build).
func removeAll(fsys faultfs.FS, path string) error {
	entries, err := fsys.ReadDir(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		sub := path + string(os.PathSeparator) + e.Name()
		if e.IsDir() {
			if err := removeAll(fsys, sub); err != nil {
				return err
			}
		} else if err := fsys.Remove(sub); err != nil {
			return err
		}
	}
	return fsys.Remove(path)
}
