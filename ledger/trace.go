package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/store"
	"xydiff/internal/vstore"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one, -1 for
// a request's root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Doc    string `json:"doc"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// diffRec is what one versioning diff reported to the observer.
type diffRec struct {
	phase             string
	timings           diff.PhaseTimings
	oldNodes, matched int
	newNodes          int
}

// tracer keeps spans in memory; they are written out when the run ends.
// A document has at most one request in flight, so the innermost open
// span of a document is the parent of any span the store opens for it:
// that is how store calls are correlated with client requests without
// anything inside the program knowing about the trace.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	open   map[string]int
	deltas map[string]*delta.Delta
	diffs  []diffRec
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[string]int{}, deltas: map[string]*delta.Delta{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span for doc. A client request passes its id and
// phase; a store call passes -1 and "" and inherits both from the
// document's innermost open span (set-up traffic has none).
func (t *tracer) begin(name, doc string, req int, phase string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if p, ok := t.open[doc]; ok {
		parent = p
		if req < 0 {
			req, phase = t.spans[p].Req, t.spans[p].Phase
		}
	}
	if phase == "" {
		phase = "setup"
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Phase: phase, Doc: doc, Req: req, Parent: parent, Start: start})
	t.open[doc] = id
	return id
}

// end closes span id and makes its parent the document's innermost
// open span again.
func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = end
	if s.Parent >= 0 {
		t.open[s.Doc] = s.Parent
	} else {
		delete(t.open, s.Doc)
	}
}

// takeDelta returns and forgets the delta doc's last Put returned.
func (t *tracer) takeDelta(doc string) *delta.Delta {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.deltas[doc]
	delete(t.deltas, doc)
	return d
}

// observed records a diff result and derives its phase spans as
// children of the document's open Put span. The phases are laid back
// to back ending where the observer started: their durations are
// exact, their positions approximate.
func (t *tracer) observed(doc string, obsStart int64, r *diff.Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	put, ok := t.open[doc]
	if !ok {
		return
	}
	phase := t.spans[put].Phase
	t.diffs = append(t.diffs, diffRec{phase: phase, timings: r.Timings, oldNodes: r.OldNodes, newNodes: r.NewNodes, matched: r.MatchedNodes})
	phases := phaseDurations(r.Timings)
	end := obsStart
	for i := len(phases) - 1; i >= 0; i-- {
		start := end - int64(phases[i])
		t.spans = append(t.spans, span{
			ID: len(t.spans), Name: fmt.Sprintf("diff.phase%d", i+1), Phase: phase, Doc: doc,
			Req: t.spans[put].Req, Parent: put, Start: start, End: end,
		})
		end = start
	}
}

func phaseDurations(p diff.PhaseTimings) [5]time.Duration {
	return [5]time.Duration{p.Phase1, p.Phase2, p.Phase3, p.Phase4, p.Phase5}
}

// snapshot returns copies of the spans and diff records.
func (t *tracer) snapshot() ([]span, []diffRec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]diffRec(nil), t.diffs...)
}

// reset forgets everything recorded so far (set-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.diffs = nil, nil
	t.open = map[string]int{}
	t.deltas = map[string]*delta.Delta{}
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	spans, _ := t.snapshot()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// tracedStore is the store handed to server.New in a traced run. It
// spans the calls the server's document handlers make into the store
// (every PUT goes through PutMatcherContext) and wraps the observer the
// server installs. The embedded store keeps the server's optional
// StorageStats capability.
type tracedStore struct {
	*vstore.Store
	tr *tracer
}

func (s *tracedStore) PutMatcherContext(ctx context.Context, id string, doc *dom.Node, m diff.Matcher) (int, *delta.Delta, error) {
	sp := s.tr.begin("vstore.put", id, -1, "")
	v, d, err := s.Store.PutMatcherContext(ctx, id, doc, m)
	s.tr.end(sp)
	if d != nil {
		s.tr.mu.Lock()
		s.tr.deltas[id] = d
		s.tr.mu.Unlock()
	}
	return v, d, err
}

func (s *tracedStore) Latest(id string) (*dom.Node, int, error) {
	sp := s.tr.begin("vstore.latest", id, -1, "")
	defer s.tr.end(sp)
	return s.Store.Latest(id)
}

func (s *tracedStore) Version(id string, n int) (*dom.Node, error) {
	sp := s.tr.begin("vstore.version", id, -1, "")
	defer s.tr.end(sp)
	return s.Store.Version(id, n)
}

func (s *tracedStore) Delta(id string, n int) (*delta.Delta, error) {
	sp := s.tr.begin("vstore.delta", id, -1, "")
	defer s.tr.end(sp)
	return s.Store.Delta(id, n)
}

func (s *tracedStore) Aggregate(id string, from, to int) (*delta.Delta, error) {
	sp := s.tr.begin("vstore.aggregate", id, -1, "")
	defer s.tr.end(sp)
	return s.Store.Aggregate(id, from, to)
}

func (s *tracedStore) SetObserver(obs store.Observer) {
	s.Store.SetObserver(func(id string, version int, oldDoc, newDoc *dom.Node, r *diff.Result) {
		start := s.tr.now()
		s.tr.observed(id, start, r)
		sp := s.tr.begin("alert.observer", id, -1, "")
		obs(id, version, oldDoc, newDoc, r)
		s.tr.end(sp)
	})
}
