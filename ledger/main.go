// Command ledger is the repository's end-to-end benchmark: it drives
// the real xydiffd HTTP handler (server.Handler over the net/http stack
// on a loopback listener, a real vstore directory) with two
// closed-loop clients, checks every output it can, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics of a
// traced run. NOTES.md describes the workloads and metrics.
//
//	ledger --workload mixed-small --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"xydiff/internal/store"
	"xydiff/internal/vstore"
)

// setups is how many times a run sets the system up; setup_s is the
// median.
const setups = 5

// warmupTime is how long the schedule runs unmeasured before the timed
// window, so the version cache holds the popular documents when timing
// starts.
const warmupTime = time.Second

// runConfig is one invocation.
type runConfig struct {
	w    *workload
	seed int64
	// warmup runs before the timed window, which lasts measure. With
	// maxOps > 0 each client also stops the window after maxOps
	// operations; with no warmup, counts and byte ratios then repeat
	// exactly.
	warmup, measure time.Duration
	maxOps          int
	trace           bool
	// workDir holds the store directories; spans, when set, is where a
	// traced run writes its spans.
	workDir, spans string
	breakCheck     bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: mixed-small, put-large or put-html-sftm")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	)
	flag.Parse()
	w, err := workloadNamed(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ledger: usage: --workload mixed-small|put-large|put-html-sftm --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		w: w, seed: *seed, trace: *trace == 1, workDir: work, warmup: warmupTime,
		measure: time.Duration(*seconds * float64(time.Second)),
	}
	if cfg.trace {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	res, err := run(cfg, os.Stdout)
	if rerr := os.RemoveAll(work); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// session is one set-up system and the timed phase run against it.
type session struct {
	e     *env
	dir   string
	st    *state
	cs    []*client
	setup []time.Duration
	// The timed window starts at windowStart and lasts elapsed.
	windowStart time.Time
	elapsed     time.Duration
	before      counters
	after       counters
	heapMB      float64
	timed       []sample
	checked     []sample
	// readback holds the read-back phase of a PUT-only workload, which
	// starts at readStart and lasts readTime.
	readback  []sample
	readStart time.Time
	readTime  time.Duration
	reopen    time.Duration
	// checkTime is the whole check pass, reopen included.
	checkTime time.Duration
	// t tallies the clients of discarded set-ups.
	t tally
}

// tally counts every request of the session: set-ups, warmup, timed
// phase and check pass.
func (s *session) tally() tally {
	t := s.t
	for _, c := range s.cs {
		t.add(c.t)
	}
	return t
}

func (s *session) closeClients() {
	for _, c := range s.cs {
		c.close()
	}
}

// run generates the inputs and runs cfg. Without tracing it reports the
// end-to-end metrics of one session. With tracing it runs an untraced
// session and then a traced one on a fresh store, and reports the
// per-layer metrics of the traced one plus the difference between the
// two (the tracing overhead).
func run(cfg runConfig, log io.Writer) (*result, error) {
	start := time.Now()
	in, err := generate(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "inputs generated in %.2fs\n", time.Since(start).Seconds())
	plain, err := runSession(cfg, in, nil, setups)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		if err := plain.check(cfg); err != nil {
			return nil, err
		}
		m := endToEnd(plain)
		printSession(log, cfg, plain, m)
		t := plain.tally()
		return &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
	}
	plain.closeClients()
	if err := plain.e.close(); err != nil {
		return nil, err
	}
	// Drop the closed store so the traced session runs with the same
	// live heap, and so the same GC pressure, as the untraced one.
	plain.e = nil
	tr := newTracer()
	traced, err := runSession(cfg, in, tr, 1)
	if err != nil {
		return nil, err
	}
	if err := traced.check(cfg); err != nil {
		return nil, err
	}
	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "spans written to %s\n", cfg.spans)
	}
	m := perLayer(traced, tr, endToEnd(plain), endToEnd(traced), log)
	printSession(log, cfg, traced, m)
	all := plain.tally()
	all.add(traced.tally())
	return &result{Correct: all.wrong == 0, Attempted: all.attempted, Failed: all.failed, Metrics: m}, nil
}

// runSession sets the system up n times, keeping the last, and runs the
// timed phase against it.
func runSession(cfg runConfig, in *inputs, tr *tracer, n int) (*session, error) {
	s := &session{}
	// The heap the benchmark itself holds (the generated bodies above
	// all) is measured before the first set-up and left out of
	// live_heap_mb.
	base := liveHeap()
	for i := 0; i < n; i++ {
		if s.e != nil {
			if err := s.e.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(s.dir); err != nil {
				return nil, err
			}
		}
		if err := s.setUp(cfg, in, tr, fmt.Sprintf("store-%v-%d", tr != nil, i)); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		tr.reset()
	}
	// The live heap is taken here, with every document installed, and
	// not after the timed window: there it would grow with the history
	// the window stored, so a faster program would read as a larger one.
	s.heapMB = float64(liveHeap()-base) / 1e6

	// Both clients finish their last warmup request before the counters
	// are snapshot, so the window's counters hold only its own requests.
	warmEnd := time.Now().Add(cfg.warmup)
	runClients(s.cs, func(c *client) { c.loop(warmEnd, 0, false, "warmup") })
	before, err := snapshotCounters(s.e)
	if err != nil {
		return nil, err
	}
	s.windowStart = time.Now()
	end := s.windowStart.Add(cfg.measure)
	runClients(s.cs, func(c *client) { c.loop(end, cfg.maxOps, true, "timed") })
	s.elapsed = time.Since(s.windowStart)
	after, err := snapshotCounters(s.e)
	if err != nil {
		return nil, err
	}
	s.before, s.after = before, after
	for _, c := range s.cs {
		s.timed = append(s.timed, c.samples...)
	}
	if _, gets := split(s.timed); len(gets) == 0 {
		s.readBack(s.elapsed)
	}
	return s, nil
}

// liveHeap is the heap in use after a forced GC, in bytes. The second
// GC frees what sync.Pool victim caches still held after the first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// readBack is the read phase of the PUT-only workloads, run after the
// timed phase on the same store: for d, each client reads the version
// before the latest of each of its documents in turn, which the store
// rebuilds from the cached latest by one inverse delta. Its reads all
// cost alike and do not depend on how far the timed phase got, so its
// quantiles stay comparable between runs. It lasts as long as the
// timed window, so the GET quantiles average the machine's speed over
// as long a time as the PUT quantiles do. A read of the latest version
// would take about 0.3 ms, most of it the loopback round trip, whose
// cost jumps between runs with the machine's scheduling.
func (s *session) readBack(d time.Duration) {
	out := make([][]sample, len(s.cs))
	s.readStart = time.Now()
	end := s.readStart.Add(d)
	runClients(s.cs, func(c *client) {
		docs := append([]int(nil), c.docs...)
		sort.Ints(docs)
		for i := 0; time.Now().Before(end); i++ {
			out[c.idx] = append(out[c.idx], c.do(opVersion, docs[i%len(docs)], 1, "readback"))
		}
	})
	s.readTime = time.Since(s.readStart)
	for _, o := range out {
		s.readback = append(s.readback, o...)
	}
}

// setUp opens a fresh store, registers the subscriptions and installs
// version 1 of every document over HTTP. Its duration is one setup_s
// sample.
func (s *session) setUp(cfg runConfig, in *inputs, tr *tracer, name string) error {
	s.dir = filepath.Join(cfg.workDir, name)
	start := time.Now()
	e, err := openEnv(s.dir, cfg.w, tr)
	if err != nil {
		return err
	}
	s.e = e
	s.st = &state{in: in, cur: make([]int, cfg.w.docs), breakCheck: cfg.breakCheck}
	s.t = s.tally()
	s.closeClients()
	s.cs = []*client{newClient(0, e.url, cfg.w, s.st, cfg.seed, tr), newClient(1, e.url, cfg.w, s.st, cfg.seed, tr)}
	for _, sub := range subscriptions(cfg.w, [2][]int{s.cs[0].docs, s.cs[1].docs}) {
		if err := s.cs[0].subscribe(sub); err != nil {
			return err
		}
	}
	runClients(s.cs, func(c *client) {
		for _, d := range c.docs {
			c.put(d, "setup")
		}
	})
	s.setup = append(s.setup, time.Since(start))
	return nil
}

func (c *client) subscribe(sub map[string]any) error {
	body, err := json.Marshal(sub)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.url+"/subscriptions", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing left to report
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("subscribe %s: %d %s", body, resp.StatusCode, raw)
	}
	return nil
}

// check closes and reopens the store (timed as the reopen), then runs
// the check pass with both clients over their own documents.
func (s *session) check(cfg runConfig) error {
	start := time.Now()
	if err := s.e.close(); err != nil {
		return err
	}
	e, err := openEnv(s.dir, cfg.w, s.e.tr)
	if err != nil {
		return err
	}
	s.reopen = time.Since(start)
	s.e = e
	defer func() { s.checkTime = time.Since(start) }()
	checked := make([][]sample, len(s.cs))
	runClients(s.cs, func(c *client) {
		c.url = e.url
		rng := rand.New(rand.NewSource(cfg.seed*2 + int64(c.idx) + 0xc4ec))
		checked[c.idx] = c.checkDocs(rng, (cfg.w.replay+1)/2)
	})
	for i := range s.cs {
		s.checked = append(s.checked, checked[i]...)
	}
	s.closeClients()
	return e.close()
}

// counters is a snapshot of every counter the program exposes.
type counters struct {
	storage vstore.StorageStats
	dur     store.DurabilityStats
	mem     runtime.MemStats
	scrape  map[string]float64
}

func snapshotCounters(e *env) (counters, error) {
	c := counters{storage: e.st.StorageStats(), dur: e.st.DurabilityStats()}
	runtime.ReadMemStats(&c.mem)
	resp, err := http.Get(e.url + "/metrics")
	if err != nil {
		return c, fmt.Errorf("scrape /metrics: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing left to report
	if err != nil {
		return c, fmt.Errorf("scrape /metrics: %w", err)
	}
	c.scrape = map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil && i > 0 {
			c.scrape[line[:i]] = v
		}
	}
	return c, nil
}

// counterDiffs lists every counter that moved during the timed phase.
func counterDiffs(b, a counters) []string {
	var out []string
	add := func(name string, before, after float64) {
		if before != after {
			out = append(out, fmt.Sprintf("%s %g -> %g (%+g)", name, before, after, after-before))
		}
	}
	for name, v := range a.scrape {
		// Histogram buckets, quantile gauges and per-shard series are
		// summarized by other series.
		if strings.Contains(name, "_bucket{") || strings.Contains(name, "quantile=") || strings.Contains(name, "shard=") {
			continue
		}
		add("metrics "+name, b.scrape[name], v)
	}
	sort.Strings(out)
	n := len(out)
	add("vstore.StorageStats.CacheHits", float64(b.storage.CacheHits), float64(a.storage.CacheHits))
	add("vstore.StorageStats.CacheMisses", float64(b.storage.CacheMisses), float64(a.storage.CacheMisses))
	add("vstore.StorageStats.Batches", float64(b.storage.Batches), float64(a.storage.Batches))
	add("vstore.StorageStats.BatchRecords", float64(b.storage.BatchRecords), float64(a.storage.BatchRecords))
	add("vstore.StorageStats.Rejected", float64(b.storage.Rejected), float64(a.storage.Rejected))
	add("vstore.StorageStats.Compactions", float64(b.storage.Compactions), float64(a.storage.Compactions))
	add("vstore.StorageStats.Segments", float64(b.storage.Segments), float64(a.storage.Segments))
	add("vstore.DurabilityStats.Appends", float64(b.dur.Appends), float64(a.dur.Appends))
	add("vstore.DurabilityStats.AppendedBytes", float64(b.dur.AppendedBytes), float64(a.dur.AppendedBytes))
	add("vstore.DurabilityStats.Syncs", float64(b.dur.Syncs), float64(a.dur.Syncs))
	add("runtime.MemStats.TotalAlloc", float64(b.mem.TotalAlloc), float64(a.mem.TotalAlloc))
	add("runtime.MemStats.Mallocs", float64(b.mem.Mallocs), float64(a.mem.Mallocs))
	add("runtime.MemStats.NumGC", float64(b.mem.NumGC), float64(a.mem.NumGC))
	add("runtime.MemStats.PauseTotalNs", float64(b.mem.PauseTotalNs), float64(a.mem.PauseTotalNs))
	add("runtime.MemStats.HeapAlloc", float64(b.mem.HeapAlloc), float64(a.mem.HeapAlloc))
	sort.Strings(out[n:])
	return out
}

func printSession(log io.Writer, cfg runConfig, s *session, m map[string]metric) {
	fmt.Fprintf(log, "workload %s seed %d trace %v GOMAXPROCS %d\n", cfg.w.name, cfg.seed, cfg.trace, runtime.GOMAXPROCS(0))
	counts := map[string]int{}
	for _, x := range s.timed {
		counts[opNames[x.kind]]++
	}
	fmt.Fprintf(log, "timed window %.3fs: samples %v; read-back %d requests; check pass %d requests in %.2fs\n",
		s.elapsed.Seconds(), counts, len(s.readback), len(s.checked), s.checkTime.Seconds())
	t := s.tally()
	fmt.Fprintf(log, "attempted %d failed %d (wrong output %d) error_ratio %.6f\n", t.attempted, t.failed, t.wrong, ratio(t.failed, t.attempted))
	for _, msg := range t.msgs {
		fmt.Fprintf(log, "  failure: %s\n", msg)
	}
	for _, line := range counterDiffs(s.before, s.after) {
		fmt.Fprintf(log, "counter %s\n", line)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "%-34s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func ratio(a, b int) float64 { return div(float64(a), float64(b)) }

// div is a / b, or 0 when b is 0: a metric of which nothing was
// measured reads 0, so the result line always encodes.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
