package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"xydiff/internal/dom"
)

type opKind int

const (
	opPut opKind = iota
	opLatest
	opVersion
	opDelta
	opAggregate
)

var opNames = [...]string{"put", "latest", "version", "delta", "aggregate"}

// readMix weights the read kinds of the timed window: the latest
// version is read twice as often as each of the others.
var readMix = []opKind{opLatest, opLatest, opVersion, opDelta, opAggregate}

func (k opKind) isGet() bool { return k != opPut }

// maxReadBack is how far behind the latest version a version or delta
// read may reach, so the cost of a read does not grow with the length
// of the run.
const maxReadBack = 8

// aggregateSpan is how many versions an aggregated delta read spans,
// ending at the latest. A fixed span keeps the cost of the costliest
// read kind, and with it the GET tail, from varying with a drawn
// distance.
const aggregateSpan = 4

// sample is one completed request.
type sample struct {
	kind opKind
	at   time.Time // when the request was sent
	dur  time.Duration
	// ok means a 2xx answer that passed every output check; anything
	// else counts as missing every latency limit.
	ok bool
	// Accepted PUTs: the body size and what the response reported
	// about the delta (zero for a document's first version).
	bytes, deltaBytes, deltaOps int
	// Traced PUTs: the client-side parse of the same body with the
	// server's parse options, and the encode of the returned delta.
	parse, encode time.Duration
}

// tally counts requests and failures. wrong counts 2xx answers whose
// content failed an output check, as opposed to refused or failed
// requests; msgs keeps the first few failure messages.
type tally struct {
	attempted, failed, wrong int
	msgs                     []string
}

func (t *tally) fail(wrong bool, format string, args ...any) {
	t.failed++
	if wrong {
		t.wrong++
	}
	if len(t.msgs) < 8 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for _, m := range o.msgs {
		if len(t.msgs) < 8 {
			t.msgs = append(t.msgs, m)
		}
	}
}

// state is what the benchmark knows about the documents: how many
// versions of each were acknowledged. Each client writes only the
// entries of its own documents.
type state struct {
	in  *inputs
	cur []int
	// breakCheck makes the check of every latest-version read compare
	// against the wrong body (used by the self-test only).
	breakCheck bool
}

// client is one closed-loop client: it owns a disjoint set of
// documents and has one request in flight.
type client struct {
	idx  int
	hc   *http.Client
	url  string
	w    *workload
	st   *state
	docs []int
	rng  *rand.Rand
	zipf *rand.Zipf
	tr   *tracer
	reqs int

	t       tally
	samples []sample
}

func newClient(idx int, base string, w *workload, st *state, seed int64, tr *tracer) *client {
	c := &client{
		idx: idx, url: base, w: w, st: st, tr: tr,
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		rng: rand.New(rand.NewSource(seed*2 + int64(idx))),
	}
	for d := idx; d < w.docs; d += 2 {
		c.docs = append(c.docs, d)
	}
	// Popularity rank r maps to document docs[r]: shuffle once so the
	// hot documents are a seeded choice, not the lowest ids.
	c.rng.Shuffle(len(c.docs), func(i, j int) { c.docs[i], c.docs[j] = c.docs[j], c.docs[i] })
	if w.zipf > 0 {
		c.zipf = rand.NewZipf(c.rng, w.zipf, 1, uint64(len(c.docs)-1))
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// next draws the next operation from the client's seeded schedule.
func (c *client) next() (opKind, int, int) {
	var d int
	if c.zipf != nil {
		d = c.docs[c.zipf.Uint64()]
	} else {
		d = c.docs[c.rng.Intn(len(c.docs))]
	}
	kind := opPut
	if c.rng.Float64() >= c.w.putShare {
		kind = readMix[c.rng.Intn(len(readMix))]
	}
	return kind, d, c.rng.Intn(maxReadBack)
}

// loop runs operations until the deadline, and at most maxOps of them
// when maxOps > 0. Samples are kept only when record is set.
func (c *client) loop(deadline time.Time, maxOps int, record bool, phase string) {
	for n := 0; time.Now().Before(deadline) && (maxOps <= 0 || n < maxOps); n++ {
		kind, d, back := c.next()
		s := c.do(kind, d, back, phase)
		if record {
			c.samples = append(c.samples, s)
		}
	}
}

// do runs one operation. Reads fall back to the latest version while a
// document has too few versions for the drawn kind.
func (c *client) do(kind opKind, d, back int, phase string) sample {
	cur := c.st.cur[d]
	id := docID(d)
	if kind == opDelta || kind == opAggregate {
		if cur < 2 {
			kind = opLatest
		}
	}
	switch kind {
	case opPut:
		return c.put(d, phase)
	case opLatest:
		return c.get(kind, id, "/docs/"+id, phase, func(h http.Header, body []byte) error {
			want := c.st.in.body(d, cur)
			if c.st.breakCheck {
				want = c.st.in.body(d, cur+1)
			}
			return checkDoc(h, body, cur, want)
		})
	case opVersion:
		n := max(1, cur-back)
		return c.get(kind, id, fmt.Sprintf("/docs/%s/versions/%d", id, n), phase, func(h http.Header, body []byte) error {
			return checkDoc(h, body, n, c.st.in.body(d, n))
		})
	case opDelta:
		n := max(1, cur-1-back)
		return c.get(kind, id, fmt.Sprintf("/docs/%s/deltas/%d", id, n), phase, checkDeltaBody)
	default:
		a := max(1, cur-aggregateSpan)
		return c.get(kind, id, fmt.Sprintf("/docs/%s/deltas/%d..%d", id, a, cur), phase, checkDeltaBody)
	}
}

func (c *client) reqID() int {
	c.reqs++
	return c.reqs*2 + c.idx
}

func (c *client) put(d int, phase string) sample {
	id := docID(d)
	n := c.st.cur[d] + 1
	body := c.st.in.body(d, n)
	url := c.url + "/docs/" + id
	if c.w.matcher != "" {
		url += "?matcher=" + string(c.w.matcher)
	}
	c.t.attempted++
	s := sample{kind: opPut}
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		c.t.fail(false, "PUT %s: %v", id, err)
		return s
	}
	var sp int
	if c.tr != nil {
		sp = c.tr.begin("client.put", id, c.reqID(), phase)
	}
	start := time.Now()
	s.at = start
	resp, err := c.hc.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		_ = resp.Body.Close() // fully read; nothing left to report
	}
	s.dur = time.Since(start)
	if c.tr != nil {
		c.tr.end(sp)
	}
	if err != nil {
		c.t.fail(false, "PUT %s: %v", id, err)
		return s
	}
	if resp.StatusCode/100 != 2 {
		c.t.fail(false, "PUT %s v%d: %d %s", id, n, resp.StatusCode, bytes.TrimSpace(raw))
		return s
	}
	var out struct {
		Version    int `json:"version"`
		DeltaOps   int `json:"deltaOps"`
		DeltaBytes int `json:"deltaBytes"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		c.t.fail(true, "PUT %s: response: %v", id, err)
		return s
	}
	if out.Version != n {
		c.t.fail(true, "PUT %s: acknowledged version %d, want %d", id, out.Version, n)
		return s
	}
	c.st.cur[d] = n
	s.ok, s.bytes, s.deltaBytes, s.deltaOps = true, len(body), out.DeltaBytes, out.DeltaOps
	if c.tr != nil && phase == "timed" {
		// Between requests, so neither adds to a request span.
		t0 := time.Now()
		if _, err := dom.ParseWithOptions(bytes.NewReader(body), serverParseOptions()); err != nil {
			c.t.fail(true, "reparse %s v%d: %v", id, n, err)
		}
		s.parse = time.Since(t0)
		if dl := c.tr.takeDelta(id); dl != nil {
			t0 = time.Now()
			if _, err := dl.WriteTo(io.Discard); err != nil {
				c.t.fail(true, "encode %s delta: %v", id, err)
			}
			s.encode = time.Since(t0)
		}
	}
	return s
}

func (c *client) get(kind opKind, id, path, phase string, check func(http.Header, []byte) error) sample {
	c.t.attempted++
	s := sample{kind: kind}
	var sp int
	if c.tr != nil {
		sp = c.tr.begin("client.get", id, c.reqID(), phase)
	}
	start := time.Now()
	s.at = start
	resp, err := c.hc.Get(c.url + path)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		_ = resp.Body.Close() // fully read; nothing left to report
	}
	s.dur = time.Since(start)
	if c.tr != nil {
		c.tr.end(sp)
	}
	switch {
	case err != nil:
		c.t.fail(false, "GET %s: %v", path, err)
	case resp.StatusCode != http.StatusOK:
		c.t.fail(false, "GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	default:
		if err := check(resp.Header, raw); err != nil {
			c.t.fail(true, "GET %s: %v", path, err)
		} else {
			s.ok = true
		}
	}
	return s
}

// checkDoc checks a served document version against the body sent.
func checkDoc(h http.Header, body []byte, version int, want []byte) error {
	if v, _ := strconv.Atoi(h.Get("X-Xydiff-Version")); v != version {
		return fmt.Errorf("served version %q, want %d", h.Get("X-Xydiff-Version"), version)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("served %d bytes that differ from the %d bytes sent", len(body), len(want))
	}
	return nil
}

// checkDeltaBody is the in-loop check of a delta read: a delta
// document. Deltas are checked by Apply in the check pass.
func checkDeltaBody(_ http.Header, body []byte) error {
	if !bytes.HasPrefix(body, []byte("<delta")) {
		return fmt.Errorf("not a delta document: %.40q", body)
	}
	return nil
}

// serverParseOptions are the parse options the server applies to an
// uploaded document under its default Config.
func serverParseOptions() dom.ParseOptions {
	opts := dom.DefaultParseOptions()
	opts.Limits.MaxDepth = 1000
	opts.Limits.MaxTokens = 1_000_000
	return opts
}

// runClients runs both clients concurrently and returns when both have
// stopped.
func runClients(cs []*client, fn func(*client)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}
