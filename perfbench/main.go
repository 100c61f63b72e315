// Command perfbench is the repository's benchmark. It runs one workload —
// range, sdi or disk — as a closed loop driven by a single goroutine, checks
// a deterministic sample of the answers against a brute-force scan, prints a
// human-readable report and, as the last line of standard output, one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics of
// a separate traced run (--trace 1).
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload range --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and what
// each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(p params) (*result, error){
	"range": runRange,
	"sdi":   runSDI,
	"disk":  runDisk,
}

// params is what a workload driver needs to know about one run.
type params struct {
	seed    int64
	trace   bool
	size    sizes
	workDir string // disk database file and span dump
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: range, sdi or disk")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "nominal length of the measured window in seconds (sets its operation count)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workDir := fs.String("workdir", ".bench_build/perfbench-work", "directory for the disk workload's database file and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload range|sdi|disk, --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	p := params{
		seed:    *seed,
		trace:   *trace == 1,
		size:    defaultSizes(*name, *seconds),
		workDir: *workDir,
	}
	if err := os.MkdirAll(p.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	fp := fingerprint(*seed)
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%d\nfingerprint %s\n", *name, *seed, *trace, fpJSON)

	res, err := drive(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if p.trace && res.spans != nil {
		path := filepath.Join(p.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := res.spans.writeJSONL(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(res.spans.spans), path)
	}
	res.report(stdout)

	want := endToEnd
	if p.trace {
		want = perLayer
	}
	line, err := res.jsonLine(want, !p.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if res.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed or returned a wrong answer\n", *name, res.failed, res.attempted)
		return 1
	}
	return 0
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"query_p50_us", "us", "lower"},
	{"query_p99_us", "us", "lower"},
	{"query_qps", "1/s", "higher"},
	{"heap_mb", "MB", "lower"},
}

// perLayer are the metrics every traced run reports, on every workload; a
// layer the workload does not reach reports 0.
var perLayer = []metricDef{
	{"core.read_us", "us", "lower"},
	{"core.publish_us", "us", "lower"},
	{"core.sig_checks", "count", "lower"},
	{"core.explorations", "count", "lower"},
	{"core.objects_verified", "count", "lower"},
	{"core.bytes_verified", "count", "lower"},
	{"core.results", "count", "higher"},
	{"core.verify_yield", "ratio", "higher"},
	{"core.modeled_us", "us", "lower"},
	{"core.model_ratio", "ratio", "higher"},
	{"core.clusters", "count", "lower"},
	{"core.reorg_rounds", "count", "lower"},
	{"core.splits", "count", "lower"},
	{"core.merges", "count", "lower"},
	{"core.objects_relocated", "count", "lower"},
	{"accluster.self_us", "us", "lower"},
	{"pubsub.match_us", "us", "lower"},
	{"pubsub.deliver_us", "us", "lower"},
	{"pubsub.subscribe_us", "us", "lower"},
	{"pubsub.unsubscribe_us", "us", "lower"},
	{"pubsub.matches_per_event", "count", "higher"},
	{"pubsub.delivered_per_event", "count", "higher"},
	{"pubsub.dropped", "count", "lower"},
	{"pubsub.clusters", "count", "lower"},
	{"store.read_us", "us", "lower"},
	{"store.reads", "count", "lower"},
	{"store.read_bytes", "count", "lower"},
	{"diskengine.self_us", "us", "lower"},
	{"diskengine.explorations", "count", "lower"},
	{"diskengine.seeks", "count", "lower"},
	{"diskengine.objects_verified", "count", "lower"},
	{"blockcache.hit_ratio", "ratio", "higher"},
	{"blockcache.evictions", "count", "lower"},
	{"blockcache.used_mb", "MB", "lower"},
	{"setup.load_s", "s", "lower"},
	{"setup.converge_s", "s", "lower"},
	{"setup.save_s", "s", "lower"},
	{"setup.open_s", "s", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// metric is one measured value.
type metric struct {
	name, unit string
	value      float64
	// exact marks a value derived only from counts: for one seed it
	// repeats exactly from run to run.
	exact bool
}

// result is what a workload run produces.
type result struct {
	attempted, failed int
	metrics           []metric
	// notes are report lines beyond the metrics (sample counts,
	// workload-only figures such as sdi's write latencies).
	notes []string
	spans *tracer // traced run only
}

// set records a measured value.
func (r *result) set(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// setExact records a value derived only from counts.
func (r *result) setExact(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, exact: true})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) lookup(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// report prints every measured metric with its unit, then the notes.
func (r *result) report(w io.Writer) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-28s %16s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 8, 64), m.unit)
	}
	errRate := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(w, "  %-28s %16s %s\n", "error_rate", strconv.FormatFloat(errRate, 'g', 8, 64), "ratio")
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

// jsonLine renders the result line with exactly the metrics of defs. With
// required unset, a metric the workload did not measure (a per-layer metric
// of a layer it does not reach) is 0.
func (r *result) jsonLine(defs []metricDef, required bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		m, ok := r.lookup(d.name)
		if !ok && required {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if ok && m.unit != d.unit {
			return "", fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.unit, d.unit)
		}
		metrics[d.name] = value{Value: m.value, Unit: d.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, metrics})
	return string(out), err
}
