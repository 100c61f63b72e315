// Package diskengine executes spatial queries against a cluster database in
// its on-device layout — the paper's disk storage scenario made concrete
// (§5.ii): cluster signatures and the directory live in memory, member
// objects are read from the device per explored cluster, sequentially within
// a cluster. Pointed at a vdisk.Disk it yields simulated disk-scenario
// execution times from the real access pattern, complementing the pure
// counter-based model in internal/cost.
//
// The engine is a read-only executor over a checkpoint written by
// store.Save; reorganization happens in the in-memory index (internal/core)
// and becomes visible on the next checkpoint (reopening the checkpoint
// starts a fresh cache generation, so nothing stale survives).
//
// The query path mirrors the in-memory core engine's columnar design:
//
//   - The signature pass scans a flat contiguous mirror of all directory
//     signatures (sig.MatchBounds) instead of calling the per-entry virtual
//     matcher — the A term is one linear pass over packed floats.
//   - Explored regions come from a fixed-budget cache of decoded
//     structure-of-arrays columns (internal/blockcache), keyed by
//     (checkpoint generation, cluster) and shared by concurrent searches
//     through per-entry pinning. A cache hit verifies without touching the
//     device: it charges no Seeks and no BytesTransferred, only CacheHits
//     and the CPU-side counters (ObjectsVerified, BytesVerified).
//   - Cache misses are read with seek-coalescing readahead: the missed
//     regions are sorted by device offset and adjacent/near-adjacent ones
//     merge into single sequential reads (store.PlanReadRuns), so a
//     multi-cluster query pays one seek per run instead of one per cluster.
//     Each coalesced run charges one Seek and its full byte length
//     (gaps included) as BytesTransferred, plus one CacheMiss per region.
//   - Verification runs page by page over the decoded region
//     (blockcache.Region.Filter, geom's per-dimension predicates): each
//     page's candidate word goes through the dimensions most selective
//     first, minus the signature-implied column skips, until it empties —
//     identical accounting to the core engine (BytesVerified aggregates
//     per-column survivor bytes).
//
// Steady-state queries allocate nothing, cache misses included: the match
// list, bitmap, dimension order, read plan and run buffer live in pooled
// per-query scratch, a missed region decodes into recycled pages drawn from
// the cache's budget (blockcache.Cache.Alloc), and SearchIDsAppend reuses
// the caller's result buffer.
package diskengine

import (
	"fmt"
	mbits "math/bits"
	"sync"

	"accluster/internal/blockcache"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/sig"
	"accluster/internal/store"
)

// Default knobs of the disk query path.
const (
	// DefaultCacheBytes is the decoded-region cache budget used when the
	// configuration leaves it zero: 64 MiB, a small fraction of the
	// paper-scale databases yet enough to hold every hot cluster of a
	// skewed query distribution.
	DefaultCacheBytes = 64 << 20
	// DefaultReadaheadGap is the largest byte gap bridged by one coalesced
	// read when the configuration leaves it zero: 256 KiB, safely below
	// the seek-time byte equivalent of the paper's disk model (15 ms at
	// 20 MB/s ≈ 300 KB), so bridging a gap is never slower than seeking
	// over it.
	DefaultReadaheadGap = 256 << 10
)

// Config tunes the disk query path. The zero value selects the defaults.
type Config struct {
	// CacheBytes is the decoded-region cache budget in bytes: 0 selects
	// DefaultCacheBytes, negative disables the cache entirely (every
	// exploration reads the device, as the seed engine did).
	CacheBytes int64
	// ReadaheadGap is the maximum byte gap between two regions that one
	// coalesced sequential read bridges: 0 selects DefaultReadaheadGap,
	// negative disables coalescing (one read per missed region).
	ReadaheadGap int64
	// Cache, when non-nil, is a shared decoded-region cache used instead
	// of a private one (CacheBytes is then ignored). Engines sharing a
	// cache are isolated by checkpoint generation.
	Cache *blockcache.Cache
}

// Engine answers spatial selections from a checkpointed cluster database.
// It is safe for concurrent use: the directory, signature mirror and cache
// handle are immutable after Open, every Search works from pooled per-call
// scratch, cached regions are shared read-only under pins, operation
// counters merge race-free per query, and the device serializes its own
// head (vdisk.Disk models one arm; a real *os.File's ReadAt is reentrant).
type Engine struct {
	dev       store.Device
	dims      int
	objBytes  int
	dir       []store.DirEntry
	sigBounds []float32 // flat signature mirror, 4·dims floats per cluster
	sigSel    []uint8   // its dimension-selector side array (sig.AppendSelectors)
	cache     *blockcache.Cache
	gen       uint64
	maxGap    int64
	meter     cost.SyncMeter
	scratch   sync.Pool // *searchScratch
}

// searchScratch holds the per-query buffers of one in-flight selection so
// the query path allocates nothing at steady state.
//
//ac:scratch
type searchScratch struct {
	matched []int32   // signature-matching cluster positions
	misses  missPass  // coalesced read pass over the cache misses
	bits    []uint64  // candidate bitmap for the filter kernels
	order   []int     // per-query dimension processing order
	widths  []float32 // sort keys backing order
	dims    []int     // order minus the current region's signature-implied dimensions
	meter   cost.Meter
}

// ensureBits returns a bitmap of w words.
//
//ac:noalloc
func ensureBits(bits *[]uint64, w int) []uint64 {
	if cap(*bits) < w {
		//acvet:ignore noalloc amortized scratch growth; no alloc once bits covers the largest region
		*bits = make([]uint64, w)
	}
	return (*bits)[:w]
}

// missPass is the coalesced miss pass shared by single and batched
// selections: the cache-missed cluster positions, the seek-sorted read plan
// over them, and the device image of the run being decoded.
type missPass struct {
	miss []int32         // matched positions absent from the cache
	runs []store.ReadRun // coalesced read plan over miss
	buf  []byte          // device image of the current run
	run  int             // run of the next region
	k    int             // position of the next region within its run
	// local is the decode target reused across misses when the engine has
	// no cache.
	local *blockcache.Region
}

// planMisses plans coalesced reads over the missed regions (sorted by
// device offset) and rewinds the pass to its first region.
//
//ac:noalloc
func (e *Engine) planMisses(mp *missPass) {
	mp.runs = store.PlanReadRuns(e.dir, mp.miss, e.dims, e.maxGap, mp.runs[:0])
	mp.run, mp.k = 0, 0
}

// nextMiss returns the pass's next region decoded — pinned in the cache, or
// the scratch region without one; the caller releases it after verifying —
// and its cluster position. A run is read from the device when its first
// region is reached, so a caller that stops early leaves later runs unread
// and uncharged. Each run charges one Seek and its byte length to m, each
// region one CacheMiss. The region is nil once the pass is exhausted or on
// error.
//
//ac:noalloc
func (e *Engine) nextMiss(mp *missPass, m *cost.Meter) (*blockcache.Region, int32, error) {
	if mp.run == len(mp.runs) {
		return nil, 0, nil
	}
	run := mp.runs[mp.run]
	if mp.k == 0 {
		if int64(cap(mp.buf)) < run.Bytes {
			//acvet:ignore noalloc amortized read-buffer growth to the largest coalesced run
			mp.buf = make([]byte, run.Bytes)
		}
		if _, err := e.dev.ReadAt(mp.buf[:run.Bytes], run.Offset); err != nil {
			//acvet:ignore noalloc cold device-failure path
			return nil, 0, fmt.Errorf("diskengine: read run at %d: %w", run.Offset, err)
		}
		m.Seeks++
		m.BytesTransferred += run.Bytes
	}
	ci := mp.miss[run.First+mp.k]
	if mp.k++; mp.k == run.N {
		mp.run, mp.k = mp.run+1, 0
	}
	ent := e.dir[ci]
	img := mp.buf[ent.Offset-run.Offset : ent.Offset-run.Offset+int64(ent.RegionBytes(e.dims))]
	// Validate before taking storage: every region drawn from the cache
	// is then filled and handed back through Put.
	if err := store.CheckRegionImage(img, ent, e.dims); err != nil {
		return nil, 0, err
	}
	var r *blockcache.Region
	if e.cache != nil {
		r = e.cache.Alloc(ent.Count, e.dims)
	} else {
		if mp.local == nil {
			//acvet:ignore noalloc one-time lazy init of the cacheless scratch region
			mp.local = new(blockcache.Region)
		}
		r = mp.local
		r.Reset(ent.Count, e.dims)
	}
	for p, pg := range r.Pages() {
		ids, cols := pg.Columns()
		store.DecodeRegionColumns(img, ent, e.dims, p*blockcache.PageSlots, ids, cols, blockcache.PageSlots)
	}
	if e.cache != nil {
		m.CacheMisses++
		r = e.cache.Put(blockcache.Key{Gen: e.gen, Cluster: ci}, r)
	}
	return r, ci, nil
}

// release unpins a region obtained from the cache or nextMiss.
//
//ac:noalloc
func (e *Engine) release(r *blockcache.Region) {
	if e.cache != nil {
		e.cache.Unpin(r)
	}
}

// Open reads and validates the directory of a database written by
// store.Save and prepares the default query path (DefaultCacheBytes,
// DefaultReadaheadGap). Only the header and directory are read; cluster
// regions stay on the device until explored.
func Open(dev store.Device) (*Engine, error) {
	return OpenConfig(dev, Config{})
}

// OpenConfig is Open with explicit cache and readahead configuration.
func OpenConfig(dev store.Device, cfg Config) (*Engine, error) {
	dir, dims, err := store.ReadDirectory(dev)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		dev:      dev,
		dims:     dims,
		objBytes: geom.ObjectBytes(dims),
		dir:      dir,
		gen:      blockcache.NextGen(),
	}
	e.sigBounds = make([]float32, 0, len(dir)*4*dims)
	for _, d := range dir {
		e.sigBounds = sig.AppendBounds(e.sigBounds, d.Signature)
	}
	if dims <= sig.MaxSelectorDims {
		e.sigSel = make([]uint8, 0, len(dir)*4)
		for ci := range dir {
			e.sigSel = sig.AppendSelectors(e.sigSel, e.sigBounds[ci*4*dims:(ci+1)*4*dims], dims)
		}
	}
	switch {
	case cfg.Cache != nil:
		e.cache = cfg.Cache
	case cfg.CacheBytes == 0:
		e.cache = blockcache.New(DefaultCacheBytes)
	case cfg.CacheBytes > 0:
		e.cache = blockcache.New(cfg.CacheBytes)
	}
	e.maxGap = cfg.ReadaheadGap
	if e.maxGap == 0 {
		e.maxGap = DefaultReadaheadGap
	}
	e.scratch.New = func() any { return &searchScratch{} }
	return e, nil
}

// Dims returns the data space dimensionality.
func (e *Engine) Dims() int { return e.dims }

// Clusters returns the number of clusters in the directory.
func (e *Engine) Clusters() int { return len(e.dir) }

// Len returns the number of stored objects.
func (e *Engine) Len() int {
	n := 0
	for _, d := range e.dir {
		n += d.Count
	}
	return n
}

// Meter returns a consistent snapshot of the accumulated operation
// counters; each query merges its counter delta race-free on completion.
func (e *Engine) Meter() cost.Meter { return e.meter.Snapshot() }

// ResetMeter zeroes the operation counters.
func (e *Engine) ResetMeter() { e.meter.Reset() }

// CacheStats returns a snapshot of the decoded-region cache counters (the
// zero Stats when the cache is disabled). With a shared cache the numbers
// cover every engine using it.
func (e *Engine) CacheStats() blockcache.Stats {
	if e.cache == nil {
		return blockcache.Stats{}
	}
	return e.cache.Stats()
}

// Search checks every cluster signature in memory and verifies the members
// of matching clusters — from the decoded-region cache when resident,
// otherwise reading the missed regions with coalesced sequential reads.
// Cached clusters are verified first (no I/O), then the misses in device
// offset order; the emission order across clusters is therefore
// unspecified. emit returning false stops the search: remaining regions are
// neither read nor charged. Concurrent Searches are safe and share cached
// regions without copying.
//
//ac:noalloc
func (e *Engine) Search(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error {
	return e.search(q, rel, emit, nil, nil)
}

// Count returns the number of objects satisfying the selection. It sums the
// per-region survivor counts of the block scan directly — no ids are
// extracted, no closure is allocated.
//
//ac:noalloc
func (e *Engine) Count(q geom.Rect, rel geom.Relation) (int, error) {
	n := 0
	err := e.search(q, rel, nil, nil, &n)
	return n, err
}

// SearchIDs collects the identifiers of all qualifying objects.
func (e *Engine) SearchIDs(q geom.Rect, rel geom.Relation) ([]uint32, error) {
	return e.SearchIDsAppend(nil, q, rel)
}

// SearchIDsAppend appends the identifiers of all qualifying objects to dst
// and returns the extended slice. With a reused dst of sufficient capacity a
// steady-state selection allocates nothing, cache misses included.
//
//ac:noalloc
func (e *Engine) SearchIDsAppend(dst []uint32, q geom.Rect, rel geom.Relation) ([]uint32, error) {
	err := e.search(q, rel, nil, &dst, nil)
	return dst, err
}

// search is the shared query path; qualifying ids go to exactly one of emit
// (early-stop support), out (append) or count.
//
//ac:noalloc
func (e *Engine) search(q geom.Rect, rel geom.Relation, emit func(id uint32) bool, out *[]uint32, count *int) error {
	if q.Dims() != e.dims {
		//acvet:ignore noalloc cold argument-validation failure path
		return fmt.Errorf("diskengine: query has %d dims, database has %d", q.Dims(), e.dims)
	}
	if !rel.Valid() {
		//acvet:ignore noalloc cold argument-validation failure path
		return fmt.Errorf("diskengine: invalid relation %v", rel)
	}
	sc := e.scratch.Get().(*searchScratch)
	sc.meter = cost.Meter{}
	sc.meter.Queries++
	sc.meter.SigChecks += int64(len(e.dir))
	sc.matched = sig.MatchBounds(e.sigBounds, len(e.dir), e.dims, q, rel, sc.matched[:0])
	if cap(sc.order) < e.dims {
		//acvet:ignore noalloc amortized scratch growth; no alloc once order fits query dims
		sc.order = make([]int, e.dims)
		//acvet:ignore noalloc amortized scratch growth; no alloc once widths fits query dims
		sc.widths = make([]float32, e.dims)
		//acvet:ignore noalloc amortized scratch growth; no alloc once dims fits query dims
		sc.dims = make([]int, 0, e.dims)
	}
	order := geom.QueryDimOrder(sc.order[:e.dims], sc.widths[:e.dims], q, rel)

	// Hit pass: verify every cached region first — free of I/O, so an
	// early stop may finish the query without touching the device. Misses
	// are deferred to the coalesced read pass.
	mp := &sc.misses
	mp.miss = mp.miss[:0]
	stopped := false
	for _, ci := range sc.matched {
		if e.cache != nil {
			if r, ok := e.cache.Get(blockcache.Key{Gen: e.gen, Cluster: ci}); ok {
				sc.meter.CacheHits++
				sc.meter.Explorations++
				sc.meter.ObjectsVerified += int64(r.Len())
				keep := e.verifyRegion(sc, r, int(ci), q, rel, order, emit, out, count)
				e.cache.Unpin(r)
				if !keep {
					stopped = true
					break
				}
				continue
			}
		}
		mp.miss = append(mp.miss, ci)
	}
	// Miss pass: read run by run, verifying each region as it arrives — an
	// early stop leaves later runs unread and uncharged.
	var err error
	if !stopped && len(mp.miss) > 0 {
		e.planMisses(mp)
		for {
			var r *blockcache.Region
			var ci int32
			if r, ci, err = e.nextMiss(mp, &sc.meter); r == nil {
				break
			}
			sc.meter.Explorations++
			sc.meter.ObjectsVerified += int64(r.Len())
			keep := e.verifyRegion(sc, r, int(ci), q, rel, order, emit, out, count)
			e.release(r)
			if !keep {
				break
			}
		}
	}
	e.meter.Merge(sc.meter)
	e.scratch.Put(sc)
	return err
}

// checkDims fills dims with the query's dimensions in processing order,
// minus those cluster ci's signature proves every member passes — the
// signature-implied column skips (sig.BoundsImplyDim, shared with the
// in-memory engine).
//
//ac:noalloc
func (e *Engine) checkDims(dims *[]int, ci int, q geom.Rect, rel geom.Relation, order []int) []int {
	stride := 4 * e.dims
	sb := e.sigBounds[ci*stride : (ci+1)*stride]
	*dims = (*dims)[:0]
	for _, dd := range order {
		if !sig.BoundsImplyDim(rel, sb, dd, q.Min[dd], q.Max[dd]) {
			*dims = append(*dims, dd)
		}
	}
	return *dims
}

// verifyRegion narrows the region's members through the columnar filter
// kernels and delivers the survivors; it reports whether the search should
// continue (false only when emit stopped it).
//
//ac:noalloc
func (e *Engine) verifyRegion(sc *searchScratch, r *blockcache.Region, ci int, q geom.Rect, rel geom.Relation, order []int, emit func(id uint32) bool, out *[]uint32, count *int) bool {
	n := r.Len()
	if n == 0 {
		return true
	}
	bits := ensureBits(&sc.bits, r.BitmapWords())
	alive, checks := r.Filter(rel, e.checkDims(&sc.dims, ci, q, rel, order), q.Min, q.Max, bits)
	sc.meter.BytesVerified += checks * 8
	if alive == 0 {
		return true
	}
	if count != nil {
		sc.meter.Results += int64(alive)
		*count += alive
		return true
	}
	if out != nil {
		sc.meter.Results += int64(alive)
		*out = r.AppendSurvivors(*out, bits)
		return true
	}
	for p, pg := range r.Pages() {
		ids := pg.IDs()
		for word := bits[p]; word != 0; word &= word - 1 {
			sc.meter.Results++
			if !emit(ids[mbits.TrailingZeros64(word)]) {
				return false
			}
		}
	}
	return true
}
