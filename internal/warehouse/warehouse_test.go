package warehouse

import (
	"math/rand"
	"testing"

	"xydiff/internal/alert"
	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/index"
	"xydiff/internal/xpathlite"
)

func parse(t *testing.T, s string) *dom.Node {
	t.Helper()
	d, err := dom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLoadPipeline(t *testing.T) {
	w := New(diff.Options{})
	defer w.Close()
	w.Subscribe(alert.Subscription{
		ID:    "new-products",
		Query: xpathlite.MustCompile(`//Product`),
		Kinds: []delta.Kind{delta.KindInsert},
	})

	res, err := w.Load("cat", parse(t, `<Catalog><Product><Name>a</Name></Product></Catalog>`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.Delta != nil || len(res.Alerts) != 0 {
		t.Fatalf("first load = %+v", res)
	}
	// The first version is searchable immediately.
	if docs := w.Search("a"); len(docs) != 1 || docs[0] != "cat" {
		t.Fatalf("search after first load = %v", docs)
	}

	res, err = w.Load("cat", parse(t, `<Catalog><Product><Name>a</Name></Product><Product><Name>brandnew</Name></Product></Catalog>`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.Delta == nil {
		t.Fatalf("second load = %+v", res)
	}
	if len(res.Alerts) != 1 || res.Alerts[0].SubID != "new-products" {
		t.Fatalf("alerts = %v", res.Alerts)
	}
	// Index reflects the delta.
	if docs := w.Search("brandnew"); len(docs) != 1 {
		t.Fatalf("search after update = %v", docs)
	}
	// Stats accumulated.
	if st := w.Stats(); st.Versions != 2 || st.Ops.Inserts == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The past is queryable.
	v1, err := w.Version("cat", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(xpathlite.MustCompile(`//Product`).Select(v1)) != 1 {
		t.Error("version 1 wrong")
	}
	if w.Versions("cat") != 2 {
		t.Error("version count wrong")
	}
}

func TestIndexStaysConsistentOverHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := New(diff.Options{})
	defer w.Close()
	cur := changesim.Catalog(rng, 2, 8)
	if _, err := w.Load("doc", cur); err != nil {
		t.Fatal(err)
	}
	for week := 0; week < 5; week++ {
		sim, err := changesim.Simulate(cur, changesim.Uniform(0.1, int64(week)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Load("doc", sim.New); err != nil {
			t.Fatal(err)
		}
		cur = sim.New
	}
	// The incrementally maintained index must equal a rebuild from the
	// stored latest version.
	latest, _, err := w.Latest("doc")
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := index.New()
	rebuilt.AddDocument("doc", latest)
	for _, word := range []string{"warehouse", "quick", "xml", "nonexistent-word"} {
		a, b := w.SearchPostings(word), rebuilt.Search(word)
		if len(a) != len(b) {
			t.Fatalf("postings for %q diverge: %d vs %d", word, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("posting %d for %q: %+v vs %+v", i, word, a[i], b[i])
			}
		}
	}
}

func TestTemporalDelegation(t *testing.T) {
	w := New(diff.Options{})
	defer w.Close()
	w.Load("d", parse(t, `<r><v>1</v></r>`))
	w.Load("d", parse(t, `<r><v>2</v></r>`))
	w.Load("d", parse(t, `<r><v>3</v></r>`))
	tl, err := w.Timeline("d", xpathlite.MustCompile(`//v`))
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 3 || tl[0].Value != "1" || tl[2].Value != "3" {
		t.Fatalf("timeline = %+v", tl)
	}
	hits, err := w.ChangesMatching("d", 1, 3, xpathlite.MustCompile(`//v`), delta.KindUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %+v", hits)
	}
	agg, err := w.Aggregate("d", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count().Updates != 1 {
		t.Fatalf("aggregate = %v", agg.Count())
	}
	if !w.Unsubscribe("nope") {
		// Unsubscribe of unknown id returns false; both branches fine.
		_ = struct{}{}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Load("d", parse(t, `<r/>`)); err == nil {
		t.Fatal("Load after Close succeeded")
	}
	if got := w.Versions("d"); got != 3 {
		t.Fatalf("after Close: %d versions, want 3 still readable", got)
	}
}

func TestLoadErrors(t *testing.T) {
	w := New(diff.Options{})
	defer w.Close()
	if _, err := w.Load("x", dom.NewElement("a")); err == nil {
		t.Error("element accepted")
	}
	if _, err := w.Load("x", nil); err == nil {
		t.Error("nil accepted")
	}
}
