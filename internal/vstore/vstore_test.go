package vstore

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/store"
	"xydiff/internal/store/legacytest"
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

// openTest opens a store under a fresh temp dir with small, fast
// defaults for unit tests.
func openTest(t *testing.T, cfg Config) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

func TestPutAndLatest(t *testing.T) {
	s, _ := openTest(t, Config{Shards: 4})
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
	if _, _, err := s.Latest("nope"); !errors.Is(err, store.ErrUnknownDocument) {
		t.Fatalf("Latest(nope) = %v, want ErrUnknownDocument", err)
	}
	if _, err := s.Version("doc", 9); !errors.Is(err, store.ErrNoSuchVersion) {
		t.Fatalf("Version(doc,9) = %v, want ErrNoSuchVersion", err)
	}
	if _, err := s.Version("doc", 0); !errors.Is(err, store.ErrNoSuchVersion) {
		t.Fatalf("Version(doc,0) = %v, want ErrNoSuchVersion", err)
	}
	if _, _, err := s.Put("x", dom.NewElement("a")); err == nil {
		t.Error("element accepted")
	}
	if _, _, err := s.Put("x", nil); err == nil {
		t.Error("nil accepted")
	}

	// The store keeps its own copy of what it is given.
	doc := parse(t, `<a><b>3</b></a>`)
	if _, _, err := s.Put("doc", doc); err != nil {
		t.Fatal(err)
	}
	doc.Root().Children[0].Children[0].Value = "mutated"
	if latest, _, _ := s.Latest("doc"); latest.Root().Children[0].Children[0].Value != "3" {
		t.Fatal("store aliased the caller's document")
	}

	// Delta accessors over versions 1..3.
	if d, err := s.Delta("doc", 1); err != nil || d.Count().Updates != 1 {
		t.Fatalf("Delta(1) = %v, %v", d, err)
	}
	if _, err := s.Delta("doc", 3); !errors.Is(err, store.ErrNoSuchVersion) {
		t.Fatalf("Delta(3) with 3 versions = %v, want ErrNoSuchVersion", err)
	}
	if fwd, err := s.DeltasBetween("doc", 1, 3); err != nil || len(fwd) != 2 {
		t.Fatalf("DeltasBetween(1,3) = %d, %v", len(fwd), err)
	}
	if same, err := s.DeltasBetween("doc", 2, 2); err != nil || len(same) != 0 {
		t.Fatalf("DeltasBetween(2,2) = %d, %v", len(same), err)
	}
	bwd, err := s.DeltasBetween("doc", 3, 1)
	if err != nil || len(bwd) != 2 {
		t.Fatalf("DeltasBetween(3,1) = %d, %v", len(bwd), err)
	}
	// Applying the backward chain to v3 must give v1.
	v3, err := s.Version("doc", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range bwd {
		if err := delta.Apply(v3, d); err != nil {
			t.Fatal(err)
		}
	}
	if v1, _ := s.Version("doc", 1); !dom.Equal(v3, v1) {
		t.Fatalf("backward chain: %s", dom.Diagnose(v3, v1))
	}
}

func TestVersionsReconstructAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		`<log><e>one</e></log>`,
		`<log><e>one</e><e>two</e></log>`,
		`<log><e>two</e><e>three</e></log>`,
		`<log><e>three</e></log>`,
	}
	// Several documents spread across shards, same version chain, plus
	// two with mixed content. In "mixed" a delta moves an element into
	// an inserted element whose text the moved element splits: once
	// the cache no longer holds the trees, its versions come back only
	// if the stored delta parses. In "mixed-out" the element moves out
	// of a deleted element again, after a later version gave the
	// second text a newer XID than its element.
	chains := map[string][]string{
		"mixed": {
			`<r><x><b>moved content here</b><c>keep</c></x><y>stay</y></r>`,
			`<r><x><c>keep</c></x><y>stay</y><p>hello<b>moved content here</b>world</p></r>`,
		},
		"mixed-out": {
			`<r><x><b>moved content here</b><c>keep</c></x><y>stay</y></r>`,
			`<r><x><c>keep</c></x><y>stay</y><p>hello<b>moved content here</b></p></r>`,
			`<r><x><c>keep</c></x><y>stay</y><p>hello<b>moved content here</b>world</p></r>`,
			`<r><x><b>moved content here</b><c>keep</c></x><y>stay</y></r>`,
		},
	}
	records := len(chains["mixed"]) + len(chains["mixed-out"])
	for _, id := range []string{"alpha", "beta", "gamma", "delta", "epsilon"} {
		chains[id] = texts
		records += len(texts)
	}
	for id, chain := range chains {
		for _, x := range chain {
			if _, _, err := s.Put(id, parse(t, x)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(s *Store, label string) {
		t.Helper()
		for id, chain := range chains {
			if got := s.Versions(id); got != len(chain) {
				t.Fatalf("%s: %s has %d versions, want %d", label, id, got, len(chain))
			}
			for v, want := range chain {
				doc, err := s.Version(id, v+1)
				if err != nil {
					t.Fatalf("%s: %s v%d: %v", label, id, v+1, err)
				}
				if doc.String() != want {
					t.Fatalf("%s: %s v%d = %s, want %s", label, id, v+1, doc.String(), want)
				}
			}
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, diff.Options{}, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2, "reopened")
	rec := s2.RecoveryStats()
	if rec.Documents != len(chains) || rec.JournalRecords != records {
		t.Fatalf("recovery stats = %+v, want %d documents, %d journal records", rec, len(chains), records)
	}
}

func TestManifestPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put("doc", parse(t, `<a/>`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Reopen asking for a different count: the manifest wins.
	s2, err := Open(dir, diff.Options{}, Config{Shards: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.shards); got != 3 {
		t.Fatalf("reopened with %d shards, manifest says 3", got)
	}
	if s2.Versions("doc") != 1 {
		t.Fatal("document lost across reopen")
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	s, _ := openTest(t, Config{Shards: 2, Sync: store.SyncAlways, MaxDelay: 5 * time.Millisecond})
	const writers = 64
	const putsEach = 4
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("doc-%02d", w)
			for v := 1; v <= putsEach; v++ {
				doc, err := dom.ParseString(fmt.Sprintf(`<r><w>%d</w><v>%d</v></r>`, w, v))
				if err != nil {
					errs <- err
					return
				}
				if _, _, err := s.Put(id, doc); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ds := s.DurabilityStats()
	if ds.Appends != writers*putsEach {
		t.Fatalf("appends = %d, want %d", ds.Appends, writers*putsEach)
	}
	if ds.Syncs >= ds.Appends {
		t.Fatalf("group commit did not batch: %d fsyncs for %d appends", ds.Syncs, ds.Appends)
	}
	ss := s.StorageStats()
	if ss.MaxBatch < 2 {
		t.Fatalf("no batch ever held more than one record (max %d)", ss.MaxBatch)
	}
	if ss.MeanBatch() <= 1 {
		t.Fatalf("mean batch = %f, want > 1", ss.MeanBatch())
	}
	// Everything acked must be readable.
	for w := 0; w < writers; w++ {
		if got := s.Versions(fmt.Sprintf("doc-%02d", w)); got != putsEach {
			t.Fatalf("doc-%02d has %d versions, want %d", w, got, putsEach)
		}
	}
}

func TestQueueSaturationFailsFast(t *testing.T) {
	// White box: a shard with a full queue and no committer draining it
	// must shed the next submission with ErrBusy, not block.
	s := &Store{cfg: Config{QueueDepth: 1}.withDefaults()}
	s.cfg.QueueDepth = 1
	sh := &shard{idx: 0, commitCh: make(chan *commitReq, 1)}
	sh.commitCh <- &commitReq{} // fill the queue
	done := make(chan error, 1)
	go func() { done <- s.appendDurable(sh, []byte("rec")) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrBusy) {
			t.Fatalf("err = %v, want ErrBusy", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("appendDurable blocked on a saturated queue")
	}
	if got := sh.stats.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

func TestCheckpointFoldsSegmentsIntoSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("doc-%d", i)
		for v := 1; v <= 3; v++ {
			if _, _, err := s.Put(id, parse(t, fmt.Sprintf(`<r><v>%d</v></r>`, v))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.StorageStats().Segments; got != 0 {
		t.Fatalf("%d segments remain after Checkpoint, want 0", got)
	}
	// Puts after the checkpoint land in fresh segments.
	if _, _, err := s.Put("doc-0", parse(t, `<r><v>4</v></r>`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, diff.Options{}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.RecoveryStats()
	if rec.SnapshotVersions != 18 || rec.JournalRecords != 1 {
		t.Fatalf("recovery stats = %+v, want 18 snapshot versions + 1 journal record", rec)
	}
	doc, err := s2.Version("doc-0", 4)
	if err != nil || doc.String() != `<r><v>4</v></r>` {
		t.Fatalf("doc-0 v4 after reopen = %v, %v", doc, err)
	}
	if doc, err := s2.Version("doc-0", 2); err != nil || doc.String() != `<r><v>2</v></r>` {
		t.Fatalf("doc-0 v2 after reopen = %v, %v", doc, err)
	}
}

func TestBackgroundCompaction(t *testing.T) {
	// Tiny segments force rotations; CompactSegments=2 makes the
	// background compactor fold them soon after.
	s, _ := openTest(t, Config{Shards: 1, SegmentBytes: 256, CompactSegments: 2})
	big := `<r><pad>` + strings.Repeat("x", 100) + `</pad><v>%d</v></r>`
	for v := 1; v <= 12; v++ {
		if _, _, err := s.Put("doc", parse(t, fmt.Sprintf(big, v))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.stats.compactions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The store stays correct regardless of when compaction landed.
	for v := 1; v <= 12; v++ {
		doc, err := s.Version("doc", v)
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		if want := fmt.Sprintf(big, v); doc.String() != want {
			t.Fatalf("v%d reconstructed wrong", v)
		}
	}
	ss := s.StorageStats()
	if ss.CompactionSeconds <= 0 {
		t.Fatalf("compaction seconds = %f, want > 0", ss.CompactionSeconds)
	}
}

func TestVersionCacheHitsAndEviction(t *testing.T) {
	s, _ := openTest(t, Config{Shards: 1, CacheSize: 2})
	ids := []string{"a", "b", "c"}
	for _, id := range ids {
		for v := 1; v <= 3; v++ {
			if _, _, err := s.Put(id, parse(t, fmt.Sprintf(`<r><v>%d</v></r>`, v))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := s.cache.len(); got != 2 {
		t.Fatalf("cache holds %d trees, want 2 (capacity)", got)
	}
	// Reading every document cycles through the cache; evicted entries
	// re-materialize from bytes and stay correct.
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			doc, _, err := s.Latest(id)
			if err != nil {
				t.Fatal(err)
			}
			if doc.String() != `<r><v>3</v></r>` {
				t.Fatalf("%s latest = %s", id, doc.String())
			}
		}
	}
	ss := s.StorageStats()
	if ss.CacheMisses == 0 {
		t.Fatal("capacity-2 cache over 3 documents never missed")
	}
	if ss.CacheHits == 0 {
		t.Fatal("cache never hit")
	}
}

func TestOldLayoutRefusedWithMigrationHint(t *testing.T) {
	dir := t.TempDir()
	legacytest.Copy(t, dir)
	if _, err := Open(dir, diff.Options{}, Config{}); !errors.Is(err, ErrNeedsMigration) {
		t.Fatalf("Open(old layout) = %v, want ErrNeedsMigration", err)
	}
	legacytest.CheckCopy(t, dir)
}

// TestTemporalQueries is the paper's "querying the past" over a
// catalog's history: path queries against old versions, a value's
// timeline, a node followed by its XID (across a move too), the
// changes matching a pattern, the stored deltas queried as XML
// documents, and aggregated deltas.
func TestTemporalQueries(t *testing.T) {
	s, _ := openTest(t, Config{Shards: 2})
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
	price := xpathlite.MustCompile(`//Product[Name='tx']/Price`)
	unknown := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, store.ErrUnknownDocument) {
			t.Errorf("%s of an unknown document = %v, want ErrUnknownDocument", what, err)
		}
	}

	nodes, err := s.Query("cat", 1, price)
	if err != nil || len(nodes) != 1 || nodes[0].TextContent() != "$499" {
		t.Fatalf("Query v1 = %v, %v", nodes, err)
	}
	if v, err := s.ValueAt("cat", 3, price); err != nil || v != "$450" {
		t.Errorf("ValueAt v3 = %q, %v", v, err)
	}
	_, err = s.Query("ghost", 1, price)
	unknown("Query", err)

	tl, err := s.Timeline("cat", price)
	if err != nil {
		t.Fatal(err)
	}
	wantTL := []store.VersionValue{
		{Version: 1, Found: true, Value: "$499"},
		{Version: 2, Found: true, Value: "$479"},
		{Version: 3, Found: true, Value: "$450"},
		{Version: 4, Found: false},
	}
	if fmt.Sprint(tl) != fmt.Sprint(wantTL) {
		t.Fatalf("timeline = %+v, want %+v", tl, wantTL)
	}
	_, err = s.Timeline("ghost", price)
	unknown("Timeline", err)

	// The tx price text node, followed by its persistent XID.
	v1, err := s.Version("cat", 1)
	if err != nil {
		t.Fatal(err)
	}
	node := price.SelectFirst(v1)
	if node == nil || node.XID == 0 {
		t.Fatal("price node has no XID")
	}
	hist, err := s.NodeHistory("cat", node.XID)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 || !hist[0].Present || hist[0].Value != "$499" || !hist[2].Present || hist[2].Value != "$450" || hist[3].Present {
		t.Fatalf("node history = %+v", hist)
	}
	_, err = s.NodeHistory("ghost", 1)
	unknown("NodeHistory", err)

	// "List of items recently introduced in a catalog".
	hits, err := s.ChangesMatching("cat", 1, 4, xpathlite.MustCompile(`//Product`), delta.KindInsert)
	if err != nil || len(hits) != 1 || hits[0].Version != 2 || hits[0].Op.Kind() != delta.KindInsert {
		t.Fatalf("insert hits = %+v, %v", hits, err)
	}
	// Price updates match through the text node's parent element.
	hits, err = s.ChangesMatching("cat", 1, 4, xpathlite.MustCompile(`//Price`), delta.KindUpdate)
	if err != nil || len(hits) != 3 { // 499->479, 479->450, 799->699
		t.Fatalf("price update hits = %+v, %v", hits, err)
	}
	// A deleted node is found in the version before the delete.
	hits, err = s.ChangesMatching("cat", 3, 4, xpathlite.MustCompile(`//Product[Name='tx']`), delta.KindDelete)
	if err != nil || len(hits) != 1 || hits[0].Version != 4 || hits[0].Path != "/Catalog/Product[1]" {
		t.Fatalf("delete hits = %+v, %v", hits, err)
	}
	if _, err := s.ChangesMatching("cat", 1, 4, xpathlite.MustCompile(`//Catalog`)); err != nil {
		t.Fatalf("all kinds: %v", err)
	}
	for _, r := range [][2]int{{3, 2}, {1, 9}} {
		if _, err := s.ChangesMatching("cat", r[0], r[1], price); !errors.Is(err, store.ErrNoSuchVersion) {
			t.Errorf("ChangesMatching(%d..%d) = %v, want ErrNoSuchVersion", r[0], r[1], err)
		}
	}
	_, err = s.ChangesMatching("ghost", 1, 2, price)
	unknown("ChangesMatching", err)

	// Deltas are XML documents: query a stored one with xpathlite.
	d2, err := s.Delta("cat", 2)
	if err != nil {
		t.Fatal(err)
	}
	deltaDoc, err := d2.ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	var news []string
	for _, n := range xpathlite.MustCompile(`/delta/update/new`).Select(deltaDoc) {
		news = append(news, n.TextContent())
	}
	if !strings.Contains(strings.Join(news, " "), "$450") {
		t.Errorf("update values in delta 2 = %v, want $450 among them", news)
	}

	// Aggregates, forward and backward.
	v4, err := s.Version("cat", 4)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := s.Aggregate("cat", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := delta.ApplyClone(v1, agg); err != nil || !dom.Equal(got, v4) {
		t.Fatalf("aggregate 1->4 applied to v1: %v", err)
	}
	back, err := s.Aggregate("cat", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := delta.ApplyClone(v4, back); err != nil || !dom.Equal(got, v1) {
		t.Fatalf("aggregate 4->1 applied to v4: %v", err)
	}
	if same, err := s.Aggregate("cat", 2, 2); err != nil || !same.Empty() {
		t.Errorf("Aggregate(2,2) = %v, %v", same, err)
	}
	if _, err := s.Aggregate("cat", 0, 3); !errors.Is(err, store.ErrNoSuchVersion) {
		t.Errorf("Aggregate(0,3) = %v, want ErrNoSuchVersion", err)
	}
	_, err = s.Aggregate("ghost", 1, 2)
	unknown("Aggregate", err)

	// A moved node keeps its XID, and its history shows the move.
	for _, v := range []string{`<r><a><item>payload</item></a><b/></r>`, `<r><a/><b><item>payload</item></b></r>`} {
		if _, _, err := s.Put("m", parse(t, v)); err != nil {
			t.Fatal(err)
		}
	}
	m1, err := s.Version("m", 1)
	if err != nil {
		t.Fatal(err)
	}
	hist, err = s.NodeHistory("m", xpathlite.MustCompile(`//item`).SelectFirst(m1).XID)
	if err != nil {
		t.Fatal(err)
	}
	if !hist[0].Present || !hist[1].Present || hist[0].Path != "/r/a/item" || hist[1].Path != "/r/b/item" {
		t.Fatalf("moved item history = %+v", hist)
	}
}

// TestConcurrentSameDoc hammers one document from many goroutines:
// writers race Put while readers race Version, Delta, Latest, Versions
// and IDs against them. A one-document cache makes readers rebuild
// trees from the stored bytes while writers replace them. Run under
// -race; every observed version must reconstruct to a catalog whose
// item count equals the count it was written with.
func TestConcurrentSameDoc(t *testing.T) {
	s, _ := openTest(t, Config{Shards: 2, CacheSize: 1})
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
					if v < n {
						if _, err := s.Delta(id, v); err != nil {
							t.Errorf("delta %d of %d: %v", v, n, err)
							return
						}
					}
				}
				if n > 0 {
					if _, _, err := s.Latest(id); err != nil {
						t.Errorf("latest: %v", err)
						return
					}
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

func TestObserverSeesEveryVersion(t *testing.T) {
	s, _ := openTest(t, Config{Shards: 2})
	type obsCall struct {
		id      string
		version int
	}
	var mu sync.Mutex
	var calls []obsCall
	s.SetObserver(func(id string, version int, oldDoc, newDoc *dom.Node, r *diff.Result) {
		mu.Lock()
		calls = append(calls, obsCall{id, version})
		mu.Unlock()
	})
	for v := 1; v <= 3; v++ {
		if _, _, err := s.Put("doc", parse(t, fmt.Sprintf(`<r><v>%d</v></r>`, v))); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// The observer fires for versioning diffs only (not the first Put).
	if len(calls) != 2 || calls[0] != (obsCall{"doc", 2}) || calls[1] != (obsCall{"doc", 3}) {
		t.Fatalf("observer calls = %+v", calls)
	}
}
