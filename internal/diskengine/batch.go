package diskengine

// Batched execution against the on-device layout: one multi-query-aware
// read plan for N queries. A looped single-query caller probes the cache
// and plans a read pass per query, so clusters matched by several queries
// are probed N times and — when evicted between queries or with the cache
// disabled — read N times. The batch path unions the candidate clusters of
// the whole batch first (the cluster-major signature match), checks the
// block cache once per cluster, and feeds the misses to store.PlanReadRuns
// as a single coalesced pass: each distinct cluster is decoded exactly
// once and verified against every interested query while its columns are
// hot, and the seek-sorted sweep coalesces across query boundaries — a
// batch costs strictly fewer seeks than its looped equivalent whenever
// queries share clusters or their clusters adjoin on the device.
//
// Accounting: the per-(cluster,query) CPU charges (Explorations,
// ObjectsVerified, BytesVerified, Results) are exactly the looped
// single-query ones. The I/O charges reflect the actual device traffic the
// batch saves: one CacheHit or CacheMiss per distinct cluster, one Seek and
// the run's byte length per coalesced run over the union.

import (
	"fmt"
	"sync"

	"accluster/internal/blockcache"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/sig"
)

// batchScratch holds the per-batch buffers of one in-flight batched
// selection so the warm path allocates nothing.
//
//ac:scratch
type batchScratch struct {
	bq    sig.BatchQueries // query-coordinate SoA of the batch
	match sig.BatchMatch   // cluster-major signature matches
	qbits []uint64         // query-survivor bitmap of the signature pass

	orders []int     // flat nq×dims per-query dimension orders
	widths []float32 // sort keys backing orders
	perQ   [][]uint32

	misses missPass // coalesced read pass over the union's cache misses (each once)
	bits   []uint64 // candidate bitmap for the filter kernels
	dims   []int    // a query's order minus the region's signature-implied dimensions
	meter  cost.Meter
}

// pairOf returns the position of cluster ci in the cluster-major match
// (binary search; match.Clusters is ascending by construction).
//
//ac:noalloc
func (sc *batchScratch) pairOf(ci int32) int {
	lo, hi := 0, len(sc.match.Clusters)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sc.match.Clusters[mid] < ci {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// batchPool lazily initializes the batch scratch pool (engines predating a
// batch call never pay for it).
var batchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// SearchIDsBatch executes every query in qs in one engine pass and fills
// dst with the per-query result sets (dst.Query(i) holds query i's ids).
// The batch unions the candidate clusters of all queries, verifies cached
// regions first, then reads the union's misses as one coalesced seek-sorted
// sweep — each distinct region decoded once and verified against every
// interested query. Result order within a query follows the pass order
// (cached regions, then misses by device offset), as in the single-query
// path. An invalid query fails the whole batch before any of it executes.
// A steady-state batch allocates nothing, cache misses included.
//
//ac:noalloc
func (e *Engine) SearchIDsBatch(dst *geom.IDBatch, qs []geom.Rect, rel geom.Relation) error {
	if !rel.Valid() {
		//acvet:ignore noalloc cold argument-validation failure path
		return fmt.Errorf("diskengine: invalid relation %v", rel)
	}
	for i := range qs {
		if qs[i].Dims() != e.dims {
			//acvet:ignore noalloc cold argument-validation failure path
			return fmt.Errorf("diskengine: batch query %d has %d dims, database has %d", i, qs[i].Dims(), e.dims)
		}
	}
	dst.Reset(len(qs))
	nq := len(qs)
	if nq == 0 {
		return nil
	}
	sc := batchPool.Get().(*batchScratch)
	sc.meter = cost.Meter{}
	sc.meter.Queries += int64(nq)
	sc.meter.SigChecks += int64(nq) * int64(len(e.dir))

	// One pass over the signature mirror for the whole batch.
	sc.bq.Reset(qs, e.dims)
	qw := geom.BitmapWords(nq)
	if cap(sc.qbits) < qw {
		//acvet:ignore noalloc amortized scratch growth; no alloc once qbits covers the batch size
		sc.qbits = make([]uint64, qw)
	}
	sig.MatchBoundsBatch(e.sigBounds, len(e.dir), e.dims, &sc.bq, rel, e.sigSel, sc.qbits[:qw], &sc.match)

	// Per-query dimension orders, computed once per batch.
	if cap(sc.orders) < nq*e.dims {
		//acvet:ignore noalloc amortized scratch growth; no alloc once orders covers the batch size
		sc.orders = make([]int, 0, nq*e.dims)
		//acvet:ignore noalloc amortized scratch growth; no alloc once widths covers the batch size
		sc.widths = make([]float32, 0, nq*e.dims)
		//acvet:ignore noalloc amortized scratch growth; no alloc once dims fits query dims
		sc.dims = make([]int, 0, e.dims)
	}
	sc.orders, sc.widths = sc.orders[:nq*e.dims], sc.widths[:nq*e.dims]
	for qi := range qs {
		geom.QueryDimOrder(sc.orders[qi*e.dims:qi*e.dims+e.dims], sc.widths[qi*e.dims:qi*e.dims+e.dims], qs[qi], rel)
	}
	if cap(sc.perQ) < nq {
		//acvet:ignore noalloc amortized scratch growth; no alloc once perQ covers the batch size
		next := make([][]uint32, nq)
		copy(next, sc.perQ)
		sc.perQ = next
	}
	sc.perQ = sc.perQ[:nq]
	for i := range sc.perQ {
		sc.perQ[i] = sc.perQ[i][:0]
	}

	// Hit pass: the union's cached regions verify against all their
	// interested queries while pinned — one cache probe per distinct
	// cluster, no I/O. Misses defer to the single coalesced read pass.
	mp := &sc.misses
	mp.miss = mp.miss[:0]
	for p, ci := range sc.match.Clusters {
		if e.cache != nil {
			if r, ok := e.cache.Get(blockcache.Key{Gen: e.gen, Cluster: ci}); ok {
				sc.meter.CacheHits++
				e.verifyRegionBatch(sc, r, int(ci), p, qs, rel)
				e.cache.Unpin(r)
				continue
			}
		}
		mp.miss = append(mp.miss, ci)
	}
	// Miss pass: one coalesced read plan over the union's misses, each
	// region decoded once and verified against every interested query.
	var err error
	if len(mp.miss) > 0 {
		e.planMisses(mp)
		for {
			var r *blockcache.Region
			var ci int32
			if r, ci, err = e.nextMiss(mp, &sc.meter); r == nil {
				break
			}
			e.verifyRegionBatch(sc, r, int(ci), sc.pairOf(ci), qs, rel)
			e.release(r)
		}
	}
	e.meter.Merge(sc.meter)

	// Concatenate the per-query accumulators into the flat result batch.
	for qi := 0; qi < nq; qi++ {
		dst.IDs = append(dst.IDs, sc.perQ[qi]...)
		dst.Off[qi+1] = int32(len(dst.IDs))
	}
	batchPool.Put(sc)
	return err
}

// verifyRegionBatch narrows one region's members against every query
// interested in the cluster — the columns walked back-to-back per query
// while hot — appending each query's survivors to its accumulator. The
// per-(cluster,query) kernel work and meter charges equal the single-query
// verifyRegion.
//
//ac:noalloc
func (e *Engine) verifyRegionBatch(sc *batchScratch, r *blockcache.Region, ci, pair int, qs []geom.Rect, rel geom.Relation) {
	n := r.Len()
	for _, q32 := range sc.match.QIdx[sc.match.QOff[pair]:sc.match.QOff[pair+1]] {
		qi := int(q32)
		q := qs[qi]
		sc.meter.Explorations++
		sc.meter.ObjectsVerified += int64(n)
		if n == 0 {
			continue
		}
		bits := ensureBits(&sc.bits, r.BitmapWords())
		dims := e.checkDims(&sc.dims, ci, q, rel, sc.orders[qi*e.dims:qi*e.dims+e.dims])
		alive, checks := r.Filter(rel, dims, q.Min, q.Max, bits)
		sc.meter.BytesVerified += checks * 8
		if alive == 0 {
			continue
		}
		sc.meter.Results += int64(alive)
		sc.perQ[qi] = r.AppendSurvivors(sc.perQ[qi], bits)
	}
}
