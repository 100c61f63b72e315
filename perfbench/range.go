package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"accluster"
	"accluster/internal/core"
	"accluster/internal/geom"
)

// The range workload is the paper's Fig. 7 setting (§7.2): uniformly
// distributed extended objects in 16 dimensions, every interval's size
// uniform in [0,1] and its position uniform in the rest of the domain,
// queried by Intersects rectangles of selectivity ≈5e-3.
const (
	rangeDims = 16
	// rangeQuerySize is the nominal per-dimension query width. Each width
	// is drawn uniformly in [0.5,1.5]·rangeQuerySize and each center
	// uniformly in [0,1]; over the object distribution above this gives
	// an Intersects selectivity of ≈5e-3 (the report prints the measured
	// one).
	rangeQuerySize = 0.246
)

// rangeInputs are the generated inputs of the range and disk workloads.
type rangeInputs struct {
	ids    []uint32
	rects  []geom.Rect
	warm   []geom.Rect // queries of set-up's convergence phase
	window []geom.Rect // queries of the measured window
}

// genRangeInputs draws the objects and the query stream from seed.
func genRangeInputs(seed int64, s sizes) rangeInputs {
	rng := rand.New(rand.NewSource(seed))
	in := rangeInputs{ids: make([]uint32, s.objects), rects: make([]geom.Rect, s.objects)}
	for i := range in.rects {
		r := geom.NewRect(rangeDims)
		for d := 0; d < rangeDims; d++ {
			size := rng.Float32()
			lo := rng.Float32() * (1 - size)
			r.Min[d], r.Max[d] = lo, lo+size
		}
		in.ids[i], in.rects[i] = uint32(i), r
	}
	query := func() geom.Rect {
		q := geom.NewRect(rangeDims)
		for d := 0; d < rangeDims; d++ {
			size := min(rangeQuerySize*(0.5+rng.Float32()), 1)
			lo := min(max(rng.Float32()-size/2, 0), 1-size)
			q.Min[d], q.Max[d] = lo, lo+size
		}
		return q
	}
	in.warm = make([]geom.Rect, s.warmup)
	for i := range in.warm {
		in.warm[i] = query()
	}
	in.window = make([]geom.Rect, s.ops)
	for i := range in.window {
		in.window[i] = query()
	}
	return in
}

// intersects is the oracle's predicate: closed intervals meet in every
// dimension.
func intersects(o, q geom.Rect) bool {
	for d := range o.Min {
		if o.Min[d] > q.Max[d] || o.Max[d] < q.Min[d] {
			return false
		}
	}
	return true
}

// answerSample is the answer set of one read call kept for the oracle.
type answerSample struct {
	op  int
	ids []uint32
}

// sampleAnswer keeps a copy of ids when op is one of the checked calls.
func sampleAnswer(samples []answerSample, op, checkEvery int, ids []uint32) []answerSample {
	if op%checkEvery != 0 {
		return samples
	}
	return append(samples, answerSample{op: op, ids: slices.Clone(ids)})
}

// checkRange compares every sampled answer set with a brute-force scan of
// the benchmark's copy of the objects and returns the number of mismatches.
func checkRange(in rangeInputs, samples []answerSample) int {
	bad := 0
	var want []uint32
	for _, s := range samples {
		q := in.window[s.op]
		want = want[:0]
		for i, o := range in.rects {
			if intersects(o, q) {
				want = append(want, in.ids[i])
			}
		}
		slices.Sort(s.ids)
		if !slices.Equal(s.ids, want) {
			bad++
		}
	}
	return bad
}

// searchFunc is one read call of the range or disk window.
type searchFunc func(dst []uint32, q geom.Rect) ([]uint32, error)

// windowRun is the outcome of an untraced window.
type windowRun struct {
	lat     latencies
	samples []answerSample
	errs    int
	results int64
}

// runWindow times every read call of the window; the answer copies for the
// oracle are taken between calls, outside the timed calls.
func runWindow(search searchFunc, qs []geom.Rect, checkEvery int) windowRun {
	w := windowRun{lat: make(latencies, len(qs))}
	var buf []uint32
	for i, q := range qs {
		t0 := time.Now()
		ids, err := search(buf[:0], q)
		w.lat[i] = time.Since(t0)
		if err != nil {
			w.errs++
			continue
		}
		buf = ids
		w.results += int64(len(ids))
		w.samples = sampleAnswer(w.samples, i, checkEvery, ids)
	}
	return w
}

// buildAdaptive is the range workload's set-up through the public API: bulk
// load, then the convergence queries.
func buildAdaptive(in rangeInputs) (*accluster.Adaptive, error) {
	a, err := accluster.NewAdaptive(rangeDims)
	if err != nil {
		return nil, err
	}
	if err := a.InsertBatch(in.ids, in.rects); err != nil {
		return nil, err
	}
	var buf []uint32
	for _, q := range in.warm {
		if buf, err = a.SearchIDsAppend(buf[:0], q, geom.Intersects); err != nil {
			return nil, fmt.Errorf("convergence query: %w", err)
		}
	}
	return a, nil
}

func runRange(p params) (*result, error) {
	in := genRangeInputs(p.seed, p.size)
	if p.trace {
		return traceRange(p, in)
	}
	setups := make([]time.Duration, p.size.setups)
	var a *accluster.Adaptive
	for k := range setups {
		a = nil // the previous repetition's index is garbage before the next builds
		t0 := time.Now()
		var err error
		if a, err = buildAdaptive(in); err != nil {
			return nil, err
		}
		setups[k] = time.Since(t0)
	}
	clusters := a.Clusters()
	runtime.GC()

	w := runWindow(func(dst []uint32, q geom.Rect) ([]uint32, error) {
		return a.SearchIDsAppend(dst, q, geom.Intersects)
	}, in.window, p.size.checkEvery)

	res := &result{attempted: len(in.window)}
	res.failed = w.errs + checkRange(in, w.samples)
	res.addEndToEnd(setups, w.lat, w.lat, 1)
	runtime.KeepAlive(in)
	res.note("clusters %d after set-up, %d after the window; selectivity %.3g; %d answers checked",
		clusters, a.Clusters(), float64(w.results)/float64(len(in.window))/float64(len(in.rects)), len(w.samples))
	return res, nil
}

// coreFacade drives internal/core exactly as accluster.Adaptive does (the
// default configuration: inline reorganization, no background drainer), so
// the traced run can put spans around the core calls a public search makes.
type coreFacade struct {
	mu sync.RWMutex
	ix *core.Index
}

func newCoreFacade(in rangeInputs) (*coreFacade, error) {
	ix, err := core.New(core.Config{Dims: rangeDims})
	if err != nil {
		return nil, err
	}
	f := &coreFacade{ix: ix}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, r := range in.rects {
		if err := ix.Insert(in.ids[i], r); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// search is Adaptive.SearchIDsAppend: the read under the shared lock, then
// the opportunistic statistics publication (which runs the budgeted
// reorganization steps).
func (f *coreFacade) search(dst []uint32, q geom.Rect) ([]uint32, error) {
	f.mu.RLock()
	ids, err := f.ix.SearchIDsAppendRead(dst, q, geom.Intersects)
	f.mu.RUnlock()
	f.ix.TryDrainStats(&f.mu)
	return ids, err
}

// searchTraced is search with an accluster.search span around the whole
// call and core.read / core.publish spans around the two core calls.
func (f *coreFacade) searchTraced(tr *tracer, req int32, dst []uint32, q geom.Rect) ([]uint32, time.Duration, error) {
	root := tr.begin("accluster.search", req, -1)
	f.mu.RLock()
	s := tr.begin("core.read", req, root)
	ids, err := f.ix.SearchIDsAppendRead(dst, q, geom.Intersects)
	tr.end(s)
	f.mu.RUnlock()
	s = tr.begin("core.publish", req, root)
	f.ix.TryDrainStats(&f.mu)
	tr.end(s)
	tr.end(root)
	return ids, time.Duration(tr.spans[root].end - tr.spans[root].start), err
}

// converge runs set-up's convergence phase on f.
func (f *coreFacade) converge(in rangeInputs) error {
	var buf []uint32
	var err error
	for _, q := range in.warm {
		if buf, err = f.search(buf[:0], q); err != nil {
			return fmt.Errorf("convergence query: %w", err)
		}
	}
	return nil
}

// setupTraced builds and converges the traced run's index, reporting the
// two phases.
func setupTraced(res *result, in rangeInputs) (*coreFacade, error) {
	t0 := time.Now()
	f, err := newCoreFacade(in)
	if err != nil {
		return nil, err
	}
	res.set("setup.load_s", "s", time.Since(t0).Seconds())
	t0 = time.Now()
	if err := f.converge(in); err != nil {
		return nil, err
	}
	res.set("setup.converge_s", "s", time.Since(t0).Seconds())
	return f, nil
}

// traceRange is the traced run of the range workload. The window alternates
// traced and untraced calls so trace.overhead_pct compares the two on the
// same index state.
func traceRange(p params, in rangeInputs) (*result, error) {
	res := &result{attempted: len(in.window)}
	f, err := setupTraced(res, in)
	if err != nil {
		return nil, err
	}
	ix := f.ix
	res.setExact("core.clusters", "count", float64(ix.Clusters()))
	m0 := ix.Meter()
	rounds0, splits0, merges0, moved0 := ix.ReorgRounds(), ix.Splits(), ix.Merges(), ix.ObjectsRelocated()
	tr := newTracer(3 * len(in.window))
	runtime.GC()
	g0 := readGoCounters()

	traced := make(latencies, 0, len(in.window)/2+1)
	plain := make(latencies, 0, len(in.window)/2+1)
	var samples []answerSample
	var buf []uint32
	for i, q := range in.window {
		var ids []uint32
		if i%2 == 0 {
			var d time.Duration
			ids, d, err = f.searchTraced(tr, int32(i), buf[:0], q)
			traced = append(traced, d)
		} else {
			t0 := time.Now()
			ids, err = f.search(buf[:0], q)
			plain = append(plain, time.Since(t0))
		}
		if err != nil {
			res.failed++
			continue
		}
		buf = ids
		samples = sampleAnswer(samples, i, p.size.checkEvery, ids)
	}
	res.addGoMetrics(g0, len(in.window))

	n := float64(len(in.window))
	m := ix.Meter().Sub(m0)
	sum := tr.summary()
	readUS := sum["core.read"].meanUS()
	modeledUS := m.ModelMS(ix.Config().Params, geom.ObjectBytes(rangeDims)) / n * 1e3
	res.set("core.read_us", "us", readUS)
	res.set("core.publish_us", "us", sum["core.publish"].meanUS())
	res.set("accluster.self_us", "us", sum["accluster.search"].selfUS())
	res.setExact("core.sig_checks", "count", float64(m.SigChecks)/n)
	res.setExact("core.explorations", "count", float64(m.Explorations)/n)
	res.setExact("core.objects_verified", "count", float64(m.ObjectsVerified)/n)
	res.setExact("core.bytes_verified", "count", float64(m.BytesVerified)/n)
	res.setExact("core.results", "count", float64(m.Results)/n)
	res.setExact("core.verify_yield", "ratio", float64(m.Results)/float64(max(m.ObjectsVerified, 1)))
	res.setExact("core.modeled_us", "us", modeledUS)
	res.set("core.model_ratio", "ratio", modeledUS/readUS)
	res.setExact("core.reorg_rounds", "count", float64(ix.ReorgRounds()-rounds0))
	res.setExact("core.splits", "count", float64(ix.Splits()-splits0))
	res.setExact("core.merges", "count", float64(ix.Merges()-merges0))
	res.setExact("core.objects_relocated", "count", float64(ix.ObjectsRelocated()-moved0))
	res.set("trace.overhead_pct", "%", overheadPct(traced, plain))
	res.note("cost model (%s scenario params): modeled %.1f us vs measured core.read %.1f us per query, ratio %.3f",
		ix.Config().Params.Name, modeledUS, readUS, modeledUS/readUS)
	res.failed += checkRange(in, samples)
	res.spans = tr
	return res, nil
}
