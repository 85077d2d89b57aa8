package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"xydiff/internal/changesim"
	"xydiff/internal/dom"
)

// smoke is mixed-small at smoke size: fewer and smaller documents, a
// cache smaller than the document set, reads beside writes and a few
// subscriptions, so every path the full workloads take is exercised.
var smoke = &workload{
	name: "smoke", docs: 8, cacheSize: 2, bases: 2, variants: 4,
	putShare: 0.7, zipf: 1.1, subs: 8, replay: 2,
	base:   func(rng *rand.Rand) *dom.Node { return changesim.CatalogOfSize(rng, 3000) },
	mutate: catalogMutation(0.05),
}

// smokeRun runs the smoke workload through the same timed path as the
// benchmark, with no warmup and 48 operations per client, and checks
// that the result encodes as the JSON line the benchmark prints.
func smokeRun(t *testing.T, seed int64, trace, breakCheck bool) *result {
	t.Helper()
	res, err := run(runConfig{
		w: smoke, seed: seed, measure: time.Minute, maxOps: 48,
		trace: trace, workDir: t.TempDir(), breakCheck: breakCheck,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result does not encode: %v", err)
	}
	return res
}

func TestSameSeedSameBodies(t *testing.T) {
	a, err := generate(smoke, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(smoke, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.bodies, b.bodies) || !reflect.DeepEqual(a.offset, b.offset) {
		t.Fatal("seed 3 generated different bodies on two calls")
	}
	c, err := generate(smoke, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.bodies, c.bodies) {
		t.Fatal("seeds 3 and 4 generated the same bodies")
	}
}

func TestSameSeedSameRatios(t *testing.T) {
	a, b := smokeRun(t, 5, false, false), smokeRun(t, 5, false, false)
	for _, name := range []string{"delta_bytes_per_doc_byte", "store_bytes_per_doc_byte"} {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v for the same seed", name, a.Metrics[name], b.Metrics[name])
		}
	}
	if a.Attempted != b.Attempted || a.Failed != b.Failed || !a.Correct {
		t.Errorf("two runs of seed 5: attempted %d/%d, failed %d/%d, correct %v", a.Attempted, b.Attempted, a.Failed, b.Failed, a.Correct)
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run prints exactly the
// metrics BENCHMARK.json names, each with its unit: the end-to-end
// ones without tracing, the per-layer ones with it.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trace bool
		defs  []def
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		res := smokeRun(t, 6, tc.trace, false)
		var got, want []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, d := range tc.defs {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %v: metrics\n%v\nwant\n%v", tc.trace, got, want)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("trace %v: correct %v, failed %d of %d", tc.trace, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestFailedCheckRaisesErrorRatio(t *testing.T) {
	res := smokeRun(t, 7, false, true)
	if res.Correct || res.Failed == 0 || res.Metrics["ok_ratio"].Value >= 1 {
		t.Fatalf("with a broken check: correct %v, failed %d, ok_ratio %v", res.Correct, res.Failed, res.Metrics["ok_ratio"].Value)
	}
}
