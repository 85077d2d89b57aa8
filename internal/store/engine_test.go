package store_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/faultfs"
	"xydiff/internal/store"
	"xydiff/internal/vstore"
	"xydiff/internal/xpathlite"
)

// The repository contract whose types this package defines, checked on
// the one engine that implements it: vstore. newMem opens the same
// in-memory store warehouse.New serves from; tests about persistence
// open a directory on disk.

func parse(t *testing.T, s string) *dom.Node {
	t.Helper()
	d, err := dom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newMem(t *testing.T) *vstore.Store {
	t.Helper()
	s, err := vstore.Open("/", diff.Options{}, vstore.Config{FS: &faultfs.Mem{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func openDir(t *testing.T, dir string, cfg vstore.Config) *vstore.Store {
	t.Helper()
	s, err := vstore.Open(dir, diff.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutAndLatest(t *testing.T) {
	s := newMem(t)
	v, d, err := s.Put("doc", parse(t, `<a><b>1</b></a>`))
	if err != nil || v != 1 || d != nil {
		t.Fatalf("first Put = %d,%v,%v", v, d, err)
	}
	v, d, err = s.Put("doc", parse(t, `<a><b>2</b></a>`))
	if err != nil || v != 2 {
		t.Fatalf("second Put = %d,%v", v, err)
	}
	if d == nil || d.Count().Updates != 1 {
		t.Fatalf("second delta = %v", d)
	}
	latest, n, err := s.Latest("doc")
	if err != nil || n != 2 {
		t.Fatalf("Latest = %d,%v", n, err)
	}
	if latest.Root().Children[0].Children[0].Value != "2" {
		t.Fatal("Latest content wrong")
	}
	if s.Versions("doc") != 2 || s.Versions("nope") != 0 {
		t.Fatal("Versions wrong")
	}
	if ids := s.IDs(); len(ids) != 1 || ids[0] != "doc" {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestQueryThePast(t *testing.T) {
	s := newMem(t)
	texts := []string{
		`<log><e>one</e></log>`,
		`<log><e>one</e><e>two</e></log>`,
		`<log><e>two</e><e>three</e></log>`,
		`<log><e>three</e></log>`,
	}
	for _, x := range texts {
		if _, _, err := s.Put("log", parse(t, x)); err != nil {
			t.Fatal(err)
		}
	}
	for i, x := range texts {
		got, err := s.Version("log", i+1)
		if err != nil {
			t.Fatalf("Version(%d): %v", i+1, err)
		}
		want := parse(t, x)
		if !dom.Equal(got, want) {
			t.Fatalf("Version(%d) differs: %s", i+1, dom.Diagnose(got, want))
		}
	}
	if _, err := s.Version("log", 0); err == nil {
		t.Error("Version(0) accepted")
	}
	if _, err := s.Version("log", 5); err == nil {
		t.Error("Version(5) accepted")
	}
	if _, err := s.Version("ghost", 1); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestDeltaAccessors(t *testing.T) {
	s := newMem(t)
	for _, x := range []string{`<a><x>1</x></a>`, `<a><x>2</x></a>`, `<a><x>3</x></a>`} {
		if _, _, err := s.Put("d", parse(t, x)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := s.Delta("d", 1)
	if err != nil || d.Count().Updates != 1 {
		t.Fatalf("Delta(1) = %v, %v", d, err)
	}
	if _, err := s.Delta("d", 3); err == nil {
		t.Error("Delta(3) should not exist with 3 versions")
	}
	fwd, err := s.DeltasBetween("d", 1, 3)
	if err != nil || len(fwd) != 2 {
		t.Fatalf("DeltasBetween(1,3) = %d,%v", len(fwd), err)
	}
	bwd, err := s.DeltasBetween("d", 3, 1)
	if err != nil || len(bwd) != 2 {
		t.Fatalf("DeltasBetween(3,1) = %d,%v", len(bwd), err)
	}
	same, err := s.DeltasBetween("d", 2, 2)
	if err != nil || len(same) != 0 {
		t.Fatalf("DeltasBetween(2,2) = %d,%v", len(same), err)
	}
	// Applying the backward chain to v3 must give v1.
	v3, err := s.Version("d", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, bd := range bwd {
		if err := delta.Apply(v3, bd); err != nil {
			t.Fatal(err)
		}
	}
	v1, _ := s.Version("d", 1)
	if !dom.Equal(v3, v1) {
		t.Fatalf("backward chain: %s", dom.Diagnose(v3, v1))
	}
}

func TestPutRejectsNonDocument(t *testing.T) {
	s := newMem(t)
	if _, _, err := s.Put("x", dom.NewElement("a")); err == nil {
		t.Error("element accepted")
	}
	if _, _, err := s.Put("x", nil); err == nil {
		t.Error("nil accepted")
	}
}

func TestPutDoesNotAliasCallerDocument(t *testing.T) {
	s := newMem(t)
	doc := parse(t, `<a><b>1</b></a>`)
	if _, _, err := s.Put("d", doc); err != nil {
		t.Fatal(err)
	}
	doc.Root().Children[0].Children[0].Value = "mutated"
	latest, _, _ := s.Latest("d")
	if latest.Root().Children[0].Children[0].Value != "1" {
		t.Fatal("store aliased caller's document")
	}
}

// TestSaveLoadRoundTrip writes a changing catalog to disk, closes the
// store, reopens the directory and checks every version, then that the
// reopened store keeps accepting versions.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir, vstore.Config{Shards: 2})
	rng := rand.New(rand.NewSource(31))
	doc := changesim.Catalog(rng, 2, 4)
	if _, _, err := s.Put("catalog/main", doc); err != nil {
		t.Fatal(err)
	}
	cur := doc
	for i := 0; i < 4; i++ {
		res, err := changesim.Simulate(cur, changesim.Uniform(0.1, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Put("catalog/main", res.New); err != nil {
			t.Fatal(err)
		}
		cur = res.New
	}
	want := make([]*dom.Node, 5)
	for v := 1; v <= 5; v++ {
		d, err := s.Version("catalog/main", v)
		if err != nil {
			t.Fatal(err)
		}
		want[v-1] = d
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	loaded := openDir(t, dir, vstore.Config{})
	defer loaded.Close()
	if loaded.Versions("catalog/main") != 5 {
		t.Fatalf("loaded versions = %d, want 5", loaded.Versions("catalog/main"))
	}
	for v := 1; v <= 5; v++ {
		got, err := loaded.Version("catalog/main", v)
		if err != nil {
			t.Fatal(err)
		}
		if !dom.Equal(got, want[v-1]) {
			t.Fatalf("loaded version %d differs: %s", v, dom.Diagnose(got, want[v-1]))
		}
	}
	// The loaded store must keep working: install another version.
	res, err := changesim.Simulate(cur, changesim.Uniform(0.1, 99))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loaded.Put("catalog/main", res.New); err != nil {
		t.Fatalf("Put after Load: %v", err)
	}
	got, err := loaded.Version("catalog/main", 6)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(got, res.New) {
		t.Fatal("version 6 after load wrong")
	}
}

// seedHistory installs four versions of a small catalog.
func seedHistory(t *testing.T) *vstore.Store {
	t.Helper()
	s := newMem(t)
	for _, v := range []string{
		`<Catalog><Product><Name>tx</Name><Price>$499</Price></Product></Catalog>`,
		`<Catalog><Product><Name>tx</Name><Price>$479</Price></Product><Product><Name>zy</Name><Price>$799</Price></Product></Catalog>`,
		`<Catalog><Product><Name>tx</Name><Price>$450</Price></Product><Product><Name>zy</Name><Price>$699</Price></Product></Catalog>`,
		`<Catalog><Product><Name>zy</Name><Price>$699</Price></Product></Catalog>`,
	} {
		if _, _, err := s.Put("cat", parse(t, v)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestQueryPastVersions(t *testing.T) {
	s := seedHistory(t)
	expr := xpathlite.MustCompile(`//Product[Name='tx']/Price`)
	nodes, err := s.Query("cat", 1, expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].TextContent() != "$499" {
		t.Fatalf("Query v1 = %v", nodes)
	}
	v, err := s.ValueAt("cat", 3, expr)
	if err != nil {
		t.Fatal(err)
	}
	if v != "$450" {
		t.Errorf("ValueAt v3 = %q", v)
	}
	if _, err := s.Query("ghost", 1, expr); err == nil {
		t.Error("unknown doc accepted")
	}
}

func TestTimeline(t *testing.T) {
	s := seedHistory(t)
	tl, err := s.Timeline("cat", xpathlite.MustCompile(`//Product[Name='tx']/Price`))
	if err != nil {
		t.Fatal(err)
	}
	want := []store.VersionValue{
		{Version: 1, Found: true, Value: "$499"},
		{Version: 2, Found: true, Value: "$479"},
		{Version: 3, Found: true, Value: "$450"},
		{Version: 4, Found: false},
	}
	if len(tl) != len(want) {
		t.Fatalf("timeline length = %d, want %d", len(tl), len(want))
	}
	for i := range want {
		if tl[i] != want[i] {
			t.Errorf("timeline[%d] = %+v, want %+v", i, tl[i], want[i])
		}
	}
	if _, err := s.Timeline("ghost", xpathlite.MustCompile("//x")); err == nil {
		t.Error("unknown doc accepted")
	}
}

func TestNodeHistoryAcrossVersions(t *testing.T) {
	s := seedHistory(t)
	// Find the persistent XID of the tx price text node at version 1.
	v1, err := s.Version("cat", 1)
	if err != nil {
		t.Fatal(err)
	}
	price := xpathlite.MustCompile(`//Product[Name='tx']/Price`).SelectFirst(v1)
	if price == nil || price.XID == 0 {
		t.Fatal("price node has no XID")
	}
	hist, err := s.NodeHistory("cat", price.XID)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("history length = %d", len(hist))
	}
	if !hist[0].Present || hist[0].Value != "$499" {
		t.Errorf("v1 state = %+v", hist[0])
	}
	if !hist[2].Present || hist[2].Value != "$450" {
		t.Errorf("v3 state = %+v", hist[2])
	}
	if hist[3].Present {
		t.Errorf("v4 should not contain the deleted product's price: %+v", hist[3])
	}
	if _, err := s.NodeHistory("ghost", 1); err == nil {
		t.Error("unknown doc accepted")
	}
}

func TestChangesMatching(t *testing.T) {
	s := seedHistory(t)
	// "List of items recently introduced in a catalog": inserted
	// products between v1 and the latest.
	hits, err := s.ChangesMatching("cat", 1, 4,
		xpathlite.MustCompile(`//Product`), delta.KindInsert)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("insert hits = %v", hits)
	}
	if hits[0].Version != 2 || hits[0].Op.Kind() != delta.KindInsert {
		t.Errorf("hit = %+v", hits[0])
	}
	// All price updates, matched through the text-parent rule.
	priceHits, err := s.ChangesMatching("cat", 1, 4,
		xpathlite.MustCompile(`//Price`), delta.KindUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if len(priceHits) != 3 { // 499->479, 479->450, 799->699
		t.Fatalf("price update hits = %d: %+v", len(priceHits), priceHits)
	}
	// Kind filter empty = everything; range errors rejected.
	if _, err := s.ChangesMatching("cat", 1, 4, xpathlite.MustCompile(`//Catalog`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ChangesMatching("cat", 3, 2, xpathlite.MustCompile(`//x`)); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := s.ChangesMatching("cat", 1, 9, xpathlite.MustCompile(`//x`)); err == nil {
		t.Error("out-of-range accepted")
	}
	if _, err := s.ChangesMatching("ghost", 1, 2, xpathlite.MustCompile(`//x`)); err == nil {
		t.Error("unknown doc accepted")
	}
}

func TestChangesMatchingDeleteResolvesInOldVersion(t *testing.T) {
	s := seedHistory(t)
	hits, err := s.ChangesMatching("cat", 3, 4,
		xpathlite.MustCompile(`//Product[Name='tx']`), delta.KindDelete)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Version != 4 {
		t.Fatalf("delete hits = %+v", hits)
	}
	if hits[0].Path != "/Catalog/Product[1]" && hits[0].Path != "/Catalog/Product" {
		t.Errorf("delete path = %q", hits[0].Path)
	}
}

func TestNodeHistoryTracksMoves(t *testing.T) {
	s := newMem(t)
	for _, x := range []string{
		`<r><a><item>payload</item></a><b/></r>`,
		`<r><a/><b><item>payload</item></b></r>`,
	} {
		if _, _, err := s.Put("m", parse(t, x)); err != nil {
			t.Fatal(err)
		}
	}
	v1, err := s.Version("m", 1)
	if err != nil {
		t.Fatal(err)
	}
	item := xpathlite.MustCompile(`//item`).SelectFirst(v1)
	hist, err := s.NodeHistory("m", item.XID)
	if err != nil {
		t.Fatal(err)
	}
	if !hist[0].Present || !hist[1].Present {
		t.Fatalf("item should exist in both versions: %+v", hist)
	}
	if hist[0].Path == hist[1].Path {
		t.Errorf("move not reflected in paths: %q vs %q", hist[0].Path, hist[1].Path)
	}
	if hist[1].Path != "/r/b/item" {
		t.Errorf("v2 path = %q", hist[1].Path)
	}
}

func TestQueryDeltaDocumentsViaStore(t *testing.T) {
	// Deltas are XML documents: query one with xpathlite.
	s := seedHistory(t)
	d, err := s.Delta("cat", 2)
	if err != nil {
		t.Fatal(err)
	}
	deltaDoc, err := d.ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	ups := xpathlite.MustCompile(`/delta/update/new`).Select(deltaDoc)
	if len(ups) == 0 {
		t.Fatal("no updates found in delta document")
	}
	var hasPrice bool
	for _, u := range ups {
		if u.TextContent() == "$450" {
			hasPrice = true
		}
	}
	if !hasPrice {
		var got []string
		for _, u := range ups {
			got = append(got, u.TextContent())
		}
		t.Errorf("expected $450 among update targets, got %v", got)
	}
}

func TestAggregate(t *testing.T) {
	s := seedHistory(t)
	agg, err := s.Aggregate("cat", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := s.Version("cat", 1)
	got, err := delta.ApplyClone(v1, agg)
	if err != nil {
		t.Fatal(err)
	}
	v4, _ := s.Version("cat", 4)
	if !dom.Equal(got, v4) {
		t.Fatalf("aggregate 1->4 differs: %s", dom.Diagnose(got, v4))
	}
	// Reverse aggregation.
	back, err := s.Aggregate("cat", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	v1again, err := delta.ApplyClone(v4, back)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(v1again, v1) {
		t.Fatalf("aggregate 4->1 differs: %s", dom.Diagnose(v1again, v1))
	}
	// Same-version aggregate is empty; bad ranges error.
	same, err := s.Aggregate("cat", 2, 2)
	if err != nil || !same.Empty() {
		t.Errorf("Aggregate(2,2) = %v, %v", same, err)
	}
	if _, err := s.Aggregate("cat", 0, 3); err == nil {
		t.Error("bad range accepted")
	}
	if _, err := s.Aggregate("ghost", 1, 2); err == nil {
		t.Error("unknown doc accepted")
	}
}

// TestConcurrentSameDoc hammers one document ID from many goroutines:
// writers race Put while readers race Version, Delta, Latest, Versions
// and IDs against them. Run under -race; the invariant checked is that
// every observed version reconstructs to a well-formed catalog whose
// item count equals the version's payload.
func TestConcurrentSameDoc(t *testing.T) {
	s := newMem(t)
	const id = "hot/doc"
	const writers = 8
	const putsPerWriter = 5
	const readers = 8

	makeDoc := func(items int) *dom.Node {
		doc := dom.NewDocument()
		root := dom.NewElement("catalog")
		root.SetAttribute("items", fmt.Sprint(items))
		for k := 0; k < items; k++ {
			p := dom.NewElement("product")
			p.Append(dom.NewText(fmt.Sprintf("item-%d", k)))
			root.Append(p)
		}
		doc.Append(root)
		return doc
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := s.Versions(id)
				if n == 0 {
					continue
				}
				for v := 1; v <= n; v++ {
					doc, err := s.Version(id, v)
					if err != nil {
						t.Errorf("version %d of %d: %v", v, n, err)
						return
					}
					root := doc.Root()
					if got, _ := root.Attribute("items"); got != fmt.Sprint(len(root.Children)) {
						t.Errorf("version %d: items=%s but %d children", v, got, len(root.Children))
						return
					}
				}
				for v := 1; v < n; v++ {
					if _, err := s.Delta(id, v); err != nil {
						t.Errorf("delta %d of %d: %v", v, n, err)
						return
					}
				}
				if _, _, err := s.Latest(id); err != nil {
					t.Errorf("latest: %v", err)
					return
				}
				s.IDs()
			}
		}()
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for p := 0; p < putsPerWriter; p++ {
				if _, _, err := s.Put(id, makeDoc(1+(w*putsPerWriter+p)%13)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	if got := s.Versions(id); got != writers*putsPerWriter {
		t.Fatalf("versions = %d, want %d", got, writers*putsPerWriter)
	}
}

// TestConcurrentPutDistinctDocs verifies that writes to different
// documents proceed in parallel without corrupting the map or each
// other's histories.
func TestConcurrentPutDistinctDocs(t *testing.T) {
	s := newMem(t)
	var wg sync.WaitGroup
	const docs = 16
	for d := 0; d < docs; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			id := fmt.Sprintf("doc-%d", d)
			for v := 1; v <= 4; v++ {
				doc := dom.NewDocument()
				root := dom.NewElement("r")
				for k := 0; k < v; k++ {
					root.Append(dom.NewElement("e"))
				}
				doc.Append(root)
				if _, _, err := s.Put(id, doc); err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	if got := len(s.IDs()); got != docs {
		t.Fatalf("ids = %d, want %d", got, docs)
	}
	for _, id := range s.IDs() {
		if got := s.Versions(id); got != 4 {
			t.Errorf("%s versions = %d, want 4", id, got)
		}
	}
}

func TestConcurrentPutsAndReads(t *testing.T) {
	s := newMem(t)
	const docs = 8
	const versions = 6
	var wg sync.WaitGroup
	for d := 0; d < docs; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			id := string(rune('a' + d))
			for v := 0; v < versions; v++ {
				doc := dom.NewDocument()
				root := dom.NewElement("r")
				for k := 0; k <= v; k++ {
					e := dom.NewElement("e")
					e.Append(dom.NewText(id))
					root.Append(e)
				}
				doc.Append(root)
				if _, _, err := s.Put(id, doc); err != nil {
					t.Errorf("put %s v%d: %v", id, v, err)
					return
				}
				if _, _, err := s.Latest(id); err != nil {
					t.Errorf("latest %s: %v", id, err)
					return
				}
			}
			// Read every version back.
			for v := 1; v <= versions; v++ {
				got, err := s.Version(id, v)
				if err != nil {
					t.Errorf("version %s %d: %v", id, v, err)
					return
				}
				if n := len(got.Root().Children); n != v {
					t.Errorf("%s v%d has %d children, want %d", id, v, n, v)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	if got := len(s.IDs()); got != docs {
		t.Errorf("ids = %d, want %d", got, docs)
	}
}

// TestJournalAppendFailureLeavesStoreConsistent injects a non-crash
// write error into a segment append: the Put must fail, the history
// must be untouched, and later Puts must succeed and persist.
func TestJournalAppendFailureLeavesStoreConsistent(t *testing.T) {
	dir := t.TempDir()
	// Write #1 is the manifest, #2 the first Put's record, #3 the second's.
	fsys := faultfs.Wrap(faultfs.OS{}, &faultfs.Fault{Op: faultfs.OpWrite, Countdown: 3})
	s := openDir(t, dir, vstore.Config{Sync: store.SyncAlways, CompactSegments: -1, FS: fsys})
	defer s.Close()
	if _, _, err := s.Put("doc", parse(t, `<r><v>1</v></r>`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put("doc", parse(t, `<r><v>2</v></r>`)); err == nil {
		t.Fatal("segment write failure did not fail the Put")
	}
	if got := s.Versions("doc"); got != 1 {
		t.Fatalf("failed Put left %d versions in memory, want 1", got)
	}
	if v, _, err := s.Put("doc", parse(t, `<r><v>2b</v></r>`)); err != nil || v != 2 {
		t.Fatalf("put after failed append: v=%d err=%v", v, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openDir(t, dir, vstore.Config{Sync: store.SyncOff})
	defer s2.Close()
	if got := s2.Versions("doc"); got != 2 {
		t.Fatalf("reopened store has %d versions, want 2", got)
	}
	if doc, err := s2.Version("doc", 2); err != nil || doc.String() != `<r><v>2b</v></r>` {
		t.Fatalf("reopened v2 = %v, %v", doc, err)
	}
}

// TestCrashAfterCheckpointThenPut reopens a directory whose last
// checkpoint is followed by one more Put and no Close (a crash): the
// segment after the checkpoint holds only the delta record for v3,
// which recovery must replay onto the snapshot's two versions. The
// ids sort on both sides of the engine's own file names.
func TestCrashAfterCheckpointThenPut(t *testing.T) {
	for _, id := range []string{"t", "aaa"} {
		dir := t.TempDir()
		s := openDir(t, dir, vstore.Config{Shards: 1, Sync: store.SyncAlways, CompactSegments: -1})
		if _, _, err := s.Put(id, parse(t, `<r><v>1</v></r>`)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Put(id, parse(t, `<r><v>1</v><v>2</v></r>`)); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil { // snapshot written, segments retired
			t.Fatal(err)
		}
		if _, _, err := s.Put(id, parse(t, `<r><v>1</v><v>2</v><v>3</v></r>`)); err != nil {
			t.Fatal(err)
		}
		// Crash: no Checkpoint, no Close.
		s2 := openDir(t, dir, vstore.Config{Sync: store.SyncOff, CompactSegments: -1})
		if got := s2.Versions(id); got != 3 {
			t.Fatalf("id %q: reopened store has %d versions, want 3", id, got)
		}
		doc, err := s2.Version(id, 3)
		if err != nil {
			t.Fatalf("id %q: reconstruct v3: %v", id, err)
		}
		if want := `<r><v>1</v><v>2</v><v>3</v></r>`; doc.String() != want {
			t.Fatalf("id %q: v3 = %s, want %s", id, doc.String(), want)
		}
		rec := s2.RecoveryStats()
		if rec.SnapshotVersions != 2 || rec.JournalRecords != 1 {
			t.Fatalf("id %q: recovery stats = %+v, want 2 snapshot versions + 1 journal record", id, rec)
		}
		s2.Close()
		s.Close()
	}
}
