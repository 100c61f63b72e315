package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
)

// tinySizes shrinks a workload so a run takes well under a second.
func tinySizes(workload string) sizes {
	switch workload {
	case "sdi":
		return sizes{objects: 2000, warmup: 320, ops: 60, setups: 2, checkEvery: 5, batch: 8}
	case "disk":
		return sizes{objects: 2000, warmup: 300, ops: 120, setups: 2, checkEvery: 10, cacheFrac: 4}
	default:
		return sizes{objects: 2000, warmup: 300, ops: 200, setups: 2, checkEvery: 10}
	}
}

func tinyRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	p := params{seed: seed, trace: trace, size: tinySizes(workload), workDir: t.TempDir()}
	res, err := workloads[workload](p)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if res.failed != 0 {
		t.Fatalf("%s seed %d trace %v: %d of %d operations failed", workload, seed, trace, res.failed, res.attempted)
	}
	return res
}

// exactMetrics returns the count-derived metrics of a result.
func exactMetrics(res *result) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range res.metrics {
		if m.exact {
			out[m.name] = m.value
		}
	}
	return out
}

// TestDeterministicCounts runs every workload's traced run twice with one
// seed: every count metric (core meter and reorganization counts, pubsub
// matches and deliveries, block-cache hits and misses, store reads) must
// repeat exactly, since the benchmark is a single-goroutine closed loop.
func TestDeterministicCounts(t *testing.T) {
	want := map[string][]string{
		"range": {"core.sig_checks", "core.explorations", "core.objects_verified", "core.bytes_verified",
			"core.results", "core.modeled_us", "core.clusters", "core.reorg_rounds", "core.splits",
			"core.merges", "core.objects_relocated"},
		"sdi":  {"pubsub.matches_per_event", "pubsub.delivered_per_event", "pubsub.dropped", "pubsub.clusters"},
		"disk": {"store.reads", "store.read_bytes", "diskengine.explorations", "diskengine.seeks", "blockcache.hit_ratio", "blockcache.hits", "blockcache.misses", "blockcache.evictions"},
	}
	for w, names := range want {
		t.Run(w, func(t *testing.T) {
			a := exactMetrics(tinyRun(t, w, 7, true))
			b := exactMetrics(tinyRun(t, w, 7, true))
			for _, n := range names {
				if _, ok := a[n]; !ok {
					t.Errorf("count metric %s not reported", n)
				}
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("count metrics differ between two runs with one seed:\n%v\n%v", a, b)
			}
		})
	}
}

// TestUntracedRuns checks that every untraced run reports every end-to-end
// metric and answers correctly.
func TestUntracedRuns(t *testing.T) {
	for w := range workloads {
		t.Run(w, func(t *testing.T) {
			res := tinyRun(t, w, 3, false)
			for _, d := range endToEnd {
				m, ok := res.lookup(d.name)
				if !ok || m.value <= 0 {
					t.Errorf("%s: %s = %v (reported %v), want a positive value", w, d.name, m.value, ok)
				}
			}
		})
	}
}

// TestSeedReachesGenerators checks that the seed changes the generated
// inputs and that one seed always generates the same ones.
func TestSeedReachesGenerators(t *testing.T) {
	s := tinySizes("range")
	a, b, c := genRangeInputs(1, s), genRangeInputs(1, s), genRangeInputs(2, s)
	if !reflect.DeepEqual(a, b) {
		t.Error("range inputs differ for one seed")
	}
	if reflect.DeepEqual(a.rects, c.rects) || reflect.DeepEqual(a.window, c.window) {
		t.Error("range inputs do not depend on the seed")
	}
	s = tinySizes("sdi")
	x, y, z := genSDIInputs(1, s), genSDIInputs(1, s), genSDIInputs(2, s)
	if !reflect.DeepEqual(x.subs, y.subs) || !reflect.DeepEqual(x.window, y.window) {
		t.Error("sdi inputs differ for one seed")
	}
	if reflect.DeepEqual(x.subs, z.subs) || reflect.DeepEqual(x.window, z.window) {
		t.Error("sdi inputs do not depend on the seed")
	}
}

// TestOracleDetectsWrongAnswers corrupts sampled answers and expects the
// oracle to count each corrupted one.
func TestOracleDetectsWrongAnswers(t *testing.T) {
	in := genRangeInputs(5, tinySizes("range"))
	var samples []answerSample
	for op := 0; op < 3; op++ {
		var ids []uint32
		for i, o := range in.rects {
			if intersects(o, in.window[op]) {
				ids = append(ids, in.ids[i])
			}
		}
		samples = append(samples, answerSample{op: op, ids: ids})
	}
	if bad := checkRange(in, samples); bad != 0 {
		t.Fatalf("correct answers: %d mismatches", bad)
	}
	samples[0].ids = append(samples[0].ids, 1<<30)
	samples[2].ids = samples[2].ids[:len(samples[2].ids)/2]
	if bad := checkRange(in, samples); bad != 2 {
		t.Fatalf("two corrupted answers: %d mismatches, want 2", bad)
	}

	s := tinySizes("sdi")
	in2 := genSDIInputs(5, s)
	r := &sdiRun{in: &in2}
	r.h = r.handler
	if _, _, err := r.setup(); err != nil {
		t.Fatal(err)
	}
	r.window(s, func(int) bool { return false })
	if bad := r.check(s); bad != 0 || r.failed != 0 {
		t.Fatalf("correct sdi answers: %d mismatches, %d failures", bad, r.failed)
	}
	for b, got := range r.checked {
		if len(got) > 0 {
			r.checked[b] = got[1:]
			break
		}
	}
	if bad := r.check(s); bad == 0 {
		t.Fatal("a dropped sdi delivery went unnoticed")
	}
}

// TestResultLine checks the last output line's shape.
func TestResultLine(t *testing.T) {
	res := &result{attempted: 10}
	for _, d := range endToEnd {
		res.set(d.name, d.unit, 1.5)
	}
	line, err := res.jsonLine(endToEnd, true)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("result keys %v", keys)
	}
	if _, err := (&result{attempted: 1}).jsonLine(endToEnd, true); err == nil {
		t.Fatal("a missing end-to-end metric was not reported")
	}
	if _, err := (&result{attempted: 1}).jsonLine(perLayer, false); err != nil {
		t.Fatalf("per-layer line with unmeasured layers: %v", err)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the metrics
// the program reports, with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d reported", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: declared %+v, reported %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}
