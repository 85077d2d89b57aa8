package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"xydiff/internal/dom"
)

// quantile is the q-quantile of xs by linear interpolation between
// order statistics, 0 when there are none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	frac := h - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// failedMs is the latency in ms a failed or refused request counts as:
// far longer than any request of these workloads takes, so it misses
// every latency limit, and finite, so every quantile stays a number.
const failedMs = 10_000

// latency is a sample's client-observed latency in ms, failedMs if it
// failed.
func latency(x sample) float64 {
	if !x.ok {
		return failedMs
	}
	return ms(x.dur)
}

// slices is how many equal parts of a window the p50 latencies and the
// rates are computed on. Each is reported as the median over the parts,
// so a burst of noise from the machine in one part does not move it.
// The p90 and p99 latencies are taken over the whole window, where
// they rest on every sample.
const slices = 5

// sliced is the median over the slices of the window from start of
// length d of f applied to the samples sent in each slice and the
// slice's length in seconds. Slices without samples are skipped.
func sliced(xs []sample, start time.Time, d time.Duration, f func([]sample, float64) float64) float64 {
	parts := make([][]sample, slices)
	width := d / slices
	for _, x := range xs {
		i := min(max(int(x.at.Sub(start)/width), 0), slices-1)
		parts[i] = append(parts[i], x)
	}
	var vals []float64
	for _, p := range parts {
		if len(p) > 0 {
			vals = append(vals, f(p, width.Seconds()))
		}
	}
	return quantile(vals, 0.5)
}

// latencyQuantile is the q-quantile of the latencies of xs.
func latencyQuantile(xs []sample, q float64) float64 {
	lat := make([]float64, len(xs))
	for i, x := range xs {
		lat[i] = latency(x)
	}
	return quantile(lat, q)
}

// latencyP50 is latencyQuantile at 0.5 in the form sliced takes.
func latencyP50(xs []sample, _ float64) float64 { return latencyQuantile(xs, 0.5) }

// split separates PUT samples from GET samples.
func split(xs []sample) (puts, gets []sample) {
	for _, x := range xs {
		if x.kind.isGet() {
			gets = append(gets, x)
		} else {
			puts = append(puts, x)
		}
	}
	return puts, gets
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(s *session) map[string]metric {
	var docBytes, deltaBytes float64
	for _, x := range s.timed {
		if x.ok {
			docBytes += float64(x.bytes)
			deltaBytes += float64(x.deltaBytes)
		}
	}
	timed := func(xs []sample, f func([]sample, float64) float64) float64 {
		return sliced(xs, s.windowStart, s.elapsed, f)
	}
	puts, gets := split(s.timed)
	getStart, getTime := s.windowStart, s.elapsed
	if len(gets) == 0 {
		gets, getStart, getTime = s.readback, s.readStart, s.readTime
	}
	setup := make([]float64, len(s.setup))
	for i, d := range s.setup {
		setup[i] = d.Seconds()
	}
	t := s.tally()
	return map[string]metric{
		"put_p50_ms": {timed(puts, latencyP50), "ms"},
		"put_p90_ms": {latencyQuantile(puts, 0.90), "ms"},
		"put_p99_ms": {latencyQuantile(puts, 0.99), "ms"},
		"get_p50_ms": {sliced(gets, getStart, getTime, latencyP50), "ms"},
		"get_p99_ms": {latencyQuantile(gets, 0.99), "ms"},
		"ops_per_s": {timed(s.timed, func(xs []sample, secs float64) float64 {
			n := 0
			for _, x := range xs {
				if x.ok {
					n++
				}
			}
			return float64(n) / secs
		}), "1/s"},
		"ingest_mb_per_s": {timed(puts, func(xs []sample, secs float64) float64 {
			var b float64
			for _, x := range xs {
				if x.ok {
					b += float64(x.bytes)
				}
			}
			return b / 1e6 / secs
		}), "MB/s"},
		"delta_bytes_per_doc_byte": {div(deltaBytes, docBytes), "B/B"},
		"store_bytes_per_doc_byte": {div(float64(s.after.dur.AppendedBytes-s.before.dur.AppendedBytes), docBytes), "B/B"},
		"ok_ratio":                 {1 - ratio(t.failed, t.attempted), "ratio"},
		"setup_s":                  {quantile(setup, 0.5), "s"},
		"live_heap_mb":             {s.heapMB, "MB"},
	}
}

// perLayer computes the per-layer metrics of a traced session from its
// spans, diff records and counters. plain and traced are the
// end-to-end metrics of the untraced and the traced session; their
// difference is the tracing overhead.
func perLayer(s *session, tr *tracer, plain, traced map[string]metric, log io.Writer) map[string]metric {
	spans, diffs := tr.snapshot()
	kids := map[int][]span{}
	for _, sp := range spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	childTime := func(id int) time.Duration {
		var d time.Duration
		for _, k := range kids[id] {
			d += k.dur()
		}
		return d
	}
	var pre, post, putDur, putSelf, observer []float64
	// Read spans by phase; a read metric is taken from the first phase
	// of timed, readback and check that has reads of its kind.
	reads := map[string]map[string][]float64{}
	addRead := func(phase, name string, v float64) {
		if reads[phase] == nil {
			reads[phase] = map[string][]float64{}
		}
		reads[phase][name] = append(reads[phase][name], v)
	}
	readP50 := func(name string) float64 {
		for _, phase := range []string{"timed", "readback", "check"} {
			if xs := reads[phase][name]; len(xs) > 0 {
				return quantile(xs, 0.5)
			}
		}
		return 0
	}
	for _, sp := range spans {
		switch {
		case sp.Phase == "timed" && sp.Name == "client.put":
			for _, k := range kids[sp.ID] {
				pre = append(pre, ms(time.Duration(k.Start-sp.Start)))
				post = append(post, ms(time.Duration(sp.End-k.End)))
			}
		case sp.Phase == "timed" && sp.Name == "vstore.put":
			putDur = append(putDur, ms(sp.dur()))
			putSelf = append(putSelf, ms(sp.dur()-childTime(sp.ID)))
		case sp.Phase == "timed" && sp.Name == "alert.observer":
			observer = append(observer, ms(sp.dur()))
		case sp.Name == "client.get":
			addRead(sp.Phase, "server.get_self", ms(sp.dur()-childTime(sp.ID)))
		case sp.Parent >= 0 && sp.Name != "vstore.put":
			addRead(sp.Phase, sp.Name, ms(sp.dur()))
		}
	}

	var phases [5][]float64
	var annotate, match, construct, total []float64
	var oldNodes, matched, nodes float64
	for _, d := range diffs {
		if d.phase != "timed" {
			continue
		}
		p := phaseDurations(d.timings)
		for i := range p {
			phases[i] = append(phases[i], ms(p[i]))
		}
		annotate = append(annotate, ms(p[1]))
		match = append(match, ms(p[0]+p[2]+p[3]))
		construct = append(construct, ms(p[4]))
		total = append(total, ms(d.timings.Total()))
		oldNodes += float64(d.oldNodes)
		matched += float64(d.matched)
		nodes += float64(d.oldNodes + d.newNodes)
	}
	for i, p := range phases {
		fmt.Fprintf(log, "diff.phase%d_ms p50 %.4f over %d diffs\n", i+1, quantile(p, 0.5), len(p))
	}

	var puts, ops, deltaOps, deltaBytes float64
	var parse, docBytes float64
	var encode []float64
	for _, x := range s.timed {
		ops++
		if x.kind != opPut || !x.ok {
			continue
		}
		puts++
		deltaOps += float64(x.deltaOps)
		deltaBytes += float64(x.deltaBytes)
		if x.parse > 0 {
			parse += ms(x.parse)
			docBytes += float64(x.bytes)
		}
		if x.encode > 0 {
			encode = append(encode, ms(x.encode))
		}
	}
	b, a := s.before, s.after
	hits := float64(a.storage.CacheHits - b.storage.CacheHits)
	misses := float64(a.storage.CacheMisses - b.storage.CacheMisses)
	t := s.tally()
	return map[string]metric{
		"server.pre_store_ms_p50":        {quantile(pre, 0.5), "ms"},
		"server.post_store_ms_p50":       {quantile(post, 0.5), "ms"},
		"server.get_self_ms_p50":         {readP50("server.get_self"), "ms"},
		"server.shed_total":              {a.scrape["xydiffd_queue_rejected_total"] - b.scrape["xydiffd_queue_rejected_total"], "count"},
		"dom.parse_ms_per_mb":            {div(parse, docBytes/1e6), "ms/MB"},
		"dom.parse_alloc_bytes_per_byte": {parseAllocs(s), "B/B"},
		"vstore.put_ms_p50":              {quantile(putDur, 0.5), "ms"},
		"vstore.put_ms_p90":              {quantile(putDur, 0.9), "ms"},
		"vstore.put_self_ms_p50":         {quantile(putSelf, 0.5), "ms"},
		"vstore.cache_hit_ratio":         {div(hits, hits+misses), "ratio"},
		"vstore.cache_misses":            {misses, "count"},
		"vstore.latest_ms_p50":           {readP50("vstore.latest"), "ms"},
		"vstore.version_ms_p50":          {readP50("vstore.version"), "ms"},
		"vstore.delta_ms_p50":            {readP50("vstore.delta"), "ms"},
		"vstore.aggregate_ms_p50":        {readP50("vstore.aggregate"), "ms"},
		"vstore.appended_bytes_per_put":  {div(float64(a.dur.AppendedBytes-b.dur.AppendedBytes), puts), "B"},
		"vstore.records_per_put":         {div(float64(a.dur.Appends-b.dur.Appends), puts), "count"},
		"vstore.busy_rejected":           {float64(a.storage.Rejected - b.storage.Rejected), "count"},
		"vstore.reopen_s":                {s.reopen.Seconds(), "s"},
		"diff.annotate_ms_p50":           {quantile(annotate, 0.5), "ms"},
		"diff.match_ms_p50":              {quantile(match, 0.5), "ms"},
		"diff.construct_ms_p50":          {quantile(construct, 0.5), "ms"},
		"diff.total_ms_p50":              {quantile(total, 0.5), "ms"},
		"diff.matched_ratio":             {div(matched, oldNodes), "ratio"},
		"diff.nodes_per_put":             {div(nodes, float64(len(total))), "count"},
		"delta.encode_ms_p50":            {quantile(encode, 0.5), "ms"},
		"delta.ops_per_put":              {div(deltaOps, puts), "count"},
		"delta.bytes_per_put":            {div(deltaBytes, puts), "B"},
		"alert.observer_ms_p50":          {quantile(observer, 0.5), "ms"},
		"alert.alerts_per_put":           {div(a.scrape["xydiffd_alerts_total"]-b.scrape["xydiffd_alerts_total"], puts), "count"},
		"runtime.alloc_bytes_per_op":     {div(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops), "B"},
		"runtime.gc_cycles_per_op":       {div(float64(a.mem.NumGC-b.mem.NumGC), ops), "count"},
		"error_ratio":                    {ratio(t.failed, t.attempted), "ratio"},
		"trace.put_p50_overhead_ms":      {traced["put_p50_ms"].Value - plain["put_p50_ms"].Value, "ms"},
		"trace.ops_per_s_overhead_ratio": {div(plain["ops_per_s"].Value, traced["ops_per_s"].Value) - 1, "ratio"},
	}
}

// parseAllocs is the bytes dom.ParseWithOptions allocates per input
// byte, measured with nothing else running on the bodies the session
// sent: allocation counters are process-wide, so they cannot be taken
// between requests.
func parseAllocs(s *session) float64 {
	in := s.st.in
	var before, after runtime.MemStats
	var n float64
	runtime.ReadMemStats(&before)
	for _, vs := range in.bodies {
		for _, body := range vs[:1] {
			if _, err := dom.ParseWithOptions(bytes.NewReader(body), serverParseOptions()); err == nil {
				n += float64(len(body))
			}
		}
	}
	runtime.ReadMemStats(&after)
	return div(float64(after.TotalAlloc-before.TotalAlloc), n)
}
