package vstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/store/legacytest"
)

// The engine must serve exactly what the per-document engine it
// replaced served: same deltas, same reconstructions, same aggregates,
// byte for byte, over a changesim-driven corpus — live, after a
// checkpoint, after a reopen (where trees come from replay instead of
// from the diff that created them), and for a Put after the reopen.
// testdata/differential.golden holds the digests of the per-document
// engine's output for this corpus, captured before that engine was
// removed (see package legacytest for the format).

func renderDelta(t *testing.T, d *delta.Delta) []byte {
	t.Helper()
	b, err := serializeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDifferentialAgainstPerDocumentStore(t *testing.T) {
	golden := legacytest.ReadGolden(t, filepath.Join("testdata", "differential.golden"))
	rng := rand.New(rand.NewSource(42))
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const docs, versions = 4, 5
	id := func(d int) string { return fmt.Sprintf("doc-%d", d) }
	for d := 0; d < docs; d++ {
		cur := changesim.Catalog(rng, 3, 4)
		for v := 1; v <= versions; v++ {
			got, dl, err := s.Put(id(d), cur)
			if err != nil || got != v {
				t.Fatalf("%s: Put = v%d, %v; want v%d", id(d), got, err, v)
			}
			if v > 1 {
				golden.Check(t, id(d), fmt.Sprintf("delta%d", v-1), renderDelta(t, dl))
			}
			res, err := changesim.Simulate(cur, changesim.Uniform(0.12, rng.Int63()))
			if err != nil {
				t.Fatal(err)
			}
			cur = res.New
		}
	}

	compare := func(eng *Store, label string) {
		t.Helper()
		for d := 0; d < docs; d++ {
			for v := 1; v <= versions; v++ {
				doc, err := eng.Version(id(d), v)
				if err != nil {
					t.Fatalf("%s: %s v%d: %v", label, id(d), v, err)
				}
				golden.Check(t, id(d), fmt.Sprintf("v%d", v), []byte(doc.String()))
				if v < versions {
					dl, err := eng.Delta(id(d), v)
					if err != nil {
						t.Fatalf("%s: %s delta %d: %v", label, id(d), v, err)
					}
					golden.Check(t, id(d), fmt.Sprintf("delta%d", v), renderDelta(t, dl))
				}
			}
			agg, err := eng.Aggregate(id(d), 1, versions)
			if err != nil {
				t.Fatalf("%s: aggregate %s: %v", label, id(d), err)
			}
			golden.Check(t, id(d), fmt.Sprintf("aggregate1-%d", versions), renderDelta(t, agg))
		}
	}
	compare(s, "live")

	// A checkpoint folds everything into snapshots; correctness must
	// not depend on where the bytes live.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	compare(s, "after checkpoint")

	// Reopen: trees now come from replaying persisted bytes.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, diff.Options{}, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	compare(reopened, "reopened")

	// And diffs taken AFTER a reopen must still match: the replayed
	// latest tree carries the same XIDs the diff-produced tree had.
	for d := 0; d < docs; d++ {
		latest, err := reopened.Version(id(d), versions)
		if err != nil {
			t.Fatal(err)
		}
		mut, err := changesim.Simulate(latest, changesim.Uniform(0.15, 7))
		if err != nil {
			t.Fatal(err)
		}
		_, dl, err := reopened.Put(id(d), mut.New)
		if err != nil {
			t.Fatalf("%s post-reopen put: %v", id(d), err)
		}
		golden.Check(t, id(d), fmt.Sprintf("delta%d", versions), renderDelta(t, dl))
	}
}

// TestSerializationRoundTrip pins the property the byte-resident
// design leans on: parse(serialize(tree)) + xid.Assign reproduces a
// tree that serializes identically.
func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doc := changesim.Site(rng, 5)
	body, err := serializeTree(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := dom.ParseWithOptions(bytes.NewReader(body), snapshotLoadOptions())
	if err != nil {
		t.Fatal(err)
	}
	body2, err := serializeTree(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("serialize→parse→serialize is not a fixed point")
	}
}
