package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// sizes fixes the amount of work of one run. Every count is fixed before the
// run starts, so the same seed always executes exactly the same operations;
// only wall time varies between runs.
type sizes struct {
	objects    int // range/disk: stored objects; sdi: live subscriptions
	warmup     int // queries (sdi: events) run inside set-up so the clustering converges
	ops        int // read calls in the measured window
	setups     int // set-up repetitions of the untraced run (setup_s is their median)
	checkEvery int // the oracle checks one read call in checkEvery
	batch      int // sdi: events per PublishBatch call
	cacheFrac  int // disk: the region cache holds 1/cacheFrac of the region bytes
}

// Nominal read calls per second of each workload on a 2-vCPU x86 VM: the
// window runs seconds × rate calls, about --seconds of wall time there.
const (
	rangeCallsPerSecond = 2400
	diskCallsPerSecond  = 500
	sdiCallsPerSecond   = 320 // PublishBatch calls of 8 events each
)

func defaultSizes(workload string, seconds int) sizes {
	switch workload {
	case "sdi":
		return sizes{objects: 20000, warmup: 6400, ops: seconds * sdiCallsPerSecond, setups: 3, checkEvery: 50, batch: 8}
	case "disk":
		return sizes{objects: 25000, warmup: 2500, ops: seconds * diskCallsPerSecond, setups: 3, checkEvery: 50, cacheFrac: 4}
	default:
		return sizes{objects: 25000, warmup: 2500, ops: seconds * rangeCallsPerSecond, setups: 3, checkEvery: 50}
	}
}

// latencies collects per-call durations of a window.
type latencies []time.Duration

// quantile returns the nearest-rank q-quantile in microseconds.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := slices.Clone(l)
	slices.Sort(s)
	k := int(float64(len(s))*q+0.999999999) - 1
	k = min(max(k, 0), len(s)-1)
	return float64(s[k].Nanoseconds()) / 1e3
}

func (l latencies) total() time.Duration {
	var t time.Duration
	for _, d := range l {
		t += d
	}
	return t
}

// median returns the median of xs.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeapMB returns the live heap in MB. The second collection empties
// the sync.Pool victim caches, whose pooled scratch buffers would otherwise
// count or not depending on when the last collection ran.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// goCounters snapshots the runtime counters behind go.allocs_per_op and
// go.gc_cycles.
type goCounters struct{ mallocs, gcs uint64 }

func readGoCounters() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goCounters{mallocs: ms.Mallocs, gcs: uint64(ms.NumGC)}
}

// addGoMetrics reports the window's allocations per operation and GC cycles.
func (r *result) addGoMetrics(before goCounters, ops int) {
	after := readGoCounters()
	r.set("go.allocs_per_op", "count", float64(after.mallocs-before.mallocs)/float64(max(ops, 1)))
	r.set("go.gc_cycles", "count", float64(after.gcs-before.gcs))
}

// blockCalls is the size of the blocks the window is cut into for
// query_p99_us and query_qps, which report the median over the blocks: a
// burst of outside interference within a few blocks then does not set the
// run's value. Each block's p99 has ten samples beyond it.
const blockCalls = 1000

// addEndToEnd reports the end-to-end metrics of an untraced window. reads
// are the timed read calls; busy[i] is the summed time of every timed
// library call of window step i (the read and, on sdi, its writes); each
// read call answers perCall queries (sdi: events). The live heap includes
// the benchmark's inputs, which callers keep alive past this call so that
// they always count.
func (r *result) addEndToEnd(setups []time.Duration, reads, busy latencies, perCall int) {
	secs := make([]float64, len(setups))
	for k, d := range setups {
		secs[k] = d.Seconds()
	}
	var p99s, qps []float64
	blocks := max(len(reads)/blockCalls, 1)
	for k := 0; k < blocks; k++ {
		lo, hi := k*len(reads)/blocks, (k+1)*len(reads)/blocks
		p99s = append(p99s, reads[lo:hi].quantile(0.99))
		qps = append(qps, float64((hi-lo)*perCall)/busy[lo:hi].total().Seconds())
	}
	r.set("setup_s", "s", median(secs))
	r.set("query_p50_us", "us", reads.quantile(0.50))
	r.set("query_p99_us", "us", median(p99s))
	r.set("query_qps", "1/s", median(qps))
	r.set("heap_mb", "MB", liveHeapMB())
	r.note("samples: %d read calls in %d blocks (%d beyond each block's p99), %d set-ups %v",
		len(reads), blocks, len(reads)/blocks/100, len(setups), setups)
	r.note("p50 per tenth of the window (us): %s", reads.tenths())
}

// tenths renders the median latency of each tenth of the window, which shows
// drift within a run.
func (l latencies) tenths() string {
	var b strings.Builder
	for k := 0; k < 10; k++ {
		fmt.Fprintf(&b, " %.0f", l[k*len(l)/10:(k+1)*len(l)/10].quantile(0.5))
	}
	return b.String()
}

// runFingerprint identifies the machine and the code a result came from.
type runFingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
}

// fingerprint describes this run. The commit comes from git when the
// working directory is the root of a git checkout; source_sha256 hashes the module's Go
// sources and go.mod, so it identifies the code in any copy of the tree.
func fingerprint(seed int64) runFingerprint {
	fp := runFingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SourceHash: sourceHash("."),
		Seed:       seed,
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			fp.Commit = strings.TrimSpace(string(out))
		}
	}
	return fp
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash hashes every .go file and go.mod under root (skipping hidden
// directories), in path order; "unknown" if root cannot be read.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
