package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// workload is one traffic mix. NOTES.md says why each exists and which
// layers it loads or bypasses.
type workload struct {
	name string
	// docs is the document count, split evenly between the two clients.
	docs int
	// cacheSize is vstore.Config.CacheSize, the version cache.
	cacheSize int
	// bases is how many distinct base documents are generated; document
	// i is built on base i%bases.
	bases int
	// variants is how many one-step mutations of each base are
	// generated. Version n of a document is a variant, never a mutation
	// of a mutation: chained mutation shrinks the documents, which
	// would make latency drift within a run.
	variants int
	// putShare is the share of timed operations that are PUTs; the rest
	// are GETs split evenly over the four read kinds.
	putShare float64
	// zipf is the popularity skew over a client's documents (0 means
	// uniform).
	zipf float64
	// subs is how many subscriptions are registered at set-up.
	subs int
	// replay is how many documents the check pass rebuilds from
	// version 1 by applying every stored delta.
	replay int
	// matcher is sent as ?matcher= on every PUT; empty means the store
	// default (BULD).
	matcher diff.Matcher
	base    func(rng *rand.Rand) *dom.Node
	mutate  func(base *dom.Node, seed int64) (*dom.Node, error)
}

func catalogMutation(p float64) func(*dom.Node, int64) (*dom.Node, error) {
	return func(base *dom.Node, seed int64) (*dom.Node, error) {
		r, err := changesim.Simulate(base, changesim.Uniform(p, seed))
		if err != nil {
			return nil, err
		}
		return r.New, nil
	}
}

var workloads = []*workload{
	{
		name: "mixed-small", docs: 512, cacheSize: 128, bases: 32, variants: 32,
		putShare: 0.7, zipf: 1.1, subs: 64, replay: 32,
		base:   func(rng *rand.Rand) *dom.Node { return changesim.CatalogOfSize(rng, 20000) },
		mutate: catalogMutation(0.05),
	},
	{
		name: "put-large", docs: 4, cacheSize: 16, bases: 4, variants: 6,
		putShare: 1, replay: 2,
		base:   func(rng *rand.Rand) *dom.Node { return changesim.CatalogOfSize(rng, 900000) },
		mutate: catalogMutation(0.05),
	},
	{
		name: "put-html-sftm", docs: 32, cacheSize: 64, bases: 32, variants: 8,
		putShare: 1, replay: 8, matcher: diff.MatcherSFTM,
		base: func(rng *rand.Rand) *dom.Node { return changesim.HTMLPage(rng, 40) },
		mutate: func(base *dom.Node, seed int64) (*dom.Node, error) {
			r, err := changesim.SimulateHTML(base, changesim.UniformHTML(0.12, seed))
			if err != nil {
				return nil, err
			}
			return r.New, nil
		},
	},
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs are a workload's request bodies, generated from the seed
// before anything is timed.
type inputs struct {
	w *workload
	// bodies[b][v] is variant v of base b in canonical form: the bytes
	// the server serves back for that version.
	bodies [][][]byte
	// offset staggers documents that share a base, so they do not walk
	// the same variant sequence in step.
	offset []int
}

// generate builds the inputs of w for seed. Every base and variant has
// its own seed drawn in a fixed order, so the bodies depend on the seed
// alone, not on how generation is scheduled.
func generate(w *workload, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	baseSeeds := make([]int64, w.bases)
	varSeeds := make([][]int64, w.bases)
	for b := range baseSeeds {
		baseSeeds[b] = rng.Int63()
		varSeeds[b] = make([]int64, w.variants)
		for v := range varSeeds[b] {
			varSeeds[b][v] = rng.Int63()
		}
	}
	in := &inputs{w: w, bodies: make([][][]byte, w.bases), offset: make([]int, w.docs)}
	for d := range in.offset {
		in.offset[d] = rng.Intn(w.variants)
	}

	// Two generators, one per base stripe; each writes only its own
	// bases' slots.
	const gens = 2
	errs := make([]error, gens)
	var wg sync.WaitGroup
	for g := 0; g < gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := g; b < w.bases; b += gens {
				vs, err := variantsOf(w, baseSeeds[b], varSeeds[b])
				if err != nil {
					errs[g] = err
					return
				}
				in.bodies[b] = vs
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

func variantsOf(w *workload, baseSeed int64, seeds []int64) ([][]byte, error) {
	base := w.base(rand.New(rand.NewSource(baseSeed)))
	out := make([][]byte, len(seeds))
	for v, s := range seeds {
		doc, err := w.mutate(base, s)
		if err != nil {
			return nil, fmt.Errorf("generate %s variant: %w", w.name, err)
		}
		if out[v], err = canonical(doc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// canonical renders doc the way the server serves it: serialized,
// reparsed with the server's content model and serialized again, so
// merged text nodes and dropped whitespace are already folded in.
func canonical(doc *dom.Node) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := doc.WriteTo(&buf); err != nil {
		return nil, err
	}
	re, err := dom.Parse(&buf)
	if err != nil {
		return nil, fmt.Errorf("reparse generated document: %w", err)
	}
	buf.Reset()
	if _, err := re.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// body is version n (1-based) of document d.
func (in *inputs) body(d, n int) []byte {
	return in.bodies[d%in.w.bases][(n-1+in.offset[d])%in.w.variants]
}

func docID(d int) string { return fmt.Sprintf("d%04d", d) }

// subscriptions are the alert rules registered for a workload: 16
// each of path, XPath, kind and contains rules over the catalog
// vocabulary, path and XPath rules narrowed to one operation kind. The
// rules are part of the workload, not of its input, so they do not
// depend on the seed.
//
// Most rules watch one document, as a per-document watch would; eight
// watch every document, so every PUT raises some alerts. A watched
// document is the one at a fixed popularity rank of one client, so the
// share of PUTs that pay for a watch is part of the workload's design,
// not a property of the seed; XPath rules take ranks 7, 23, 39, ...
// (about 4% of PUTs). The alerter evaluates a query from the document
// root once per delta operation of the rule's kinds: an XPath watch on
// updates adds a few ms to a 24 KB PUT, one on every kind 60–120 ms
// (NOTES.md). ranked[c][r] is client c's document of rank r.
func subscriptions(w *workload, ranked [2][]int) []map[string]any {
	paths := []string{"/Catalog/Category/Product", "Product/Price", "Category/Title", "Product/*", "*/Name", "Description"}
	pathKinds := []string{"update", "insert", "delete"}
	queries := []string{"//Product[Price>500]", "//Product[@status='sale']", "//Category/Title", "//Product[Manufacturer]/Name", "//Price"}
	kinds := []string{"update", "insert-attribute", "move", "delete", "insert"}
	contains := []string{"$19", "$77", "-00", "-01", "$5"}
	watch := func(n, first, step int) string {
		docs := ranked[n%2]
		return docID(docs[(first+step*(n/2))%len(docs)])
	}
	out := make([]map[string]any, 0, w.subs)
	var watched int
	for j := 0; j < w.subs/4; j++ {
		rules := []map[string]any{
			{"path": paths[j%len(paths)], "kinds": []string{pathKinds[j%len(pathKinds)]}},
			{"query": queries[j%len(queries)], "kinds": []string{"update"}, "doc": watch(j, 7, 16)},
			{"kinds": []string{kinds[j%len(kinds)]}},
			{"contains": contains[j%len(contains)]},
		}
		for k, r := range rules {
			r["id"] = fmt.Sprintf("s%02d", len(out))
			// The first four path rules and the first two kind and
			// contains rules watch every document.
			global := k == 0 && j < 4 || (k == 2 || k == 3) && j < 2
			if r["doc"] == nil && !global {
				r["doc"] = watch(watched, 3, 6)
				watched++
			}
			out = append(out, r)
		}
	}
	return out
}
