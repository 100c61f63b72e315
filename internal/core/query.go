package core

import (
	"fmt"
	mbits "math/bits"

	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/sig"
)

// searchScratch holds the per-query buffers of one in-flight selection, so
// that steady-state searches allocate nothing: the matching cluster
// positions from the signature scan, the verification bitmap (sized to the
// largest explored cluster), the dimension ordering and its sort keys, plus
// everything the query will publish after its read phase — the cost-meter
// delta and the statistics delta. Scratches live in a pool (Index.scratch):
// each query owns its own for the duration of the read phase. An exclusive
// caller applies the delta and returns the scratch to the pool at once; a
// concurrent caller's scratch travels with the delta through the
// publication mailbox and returns to the pool once the delta is applied.
//
//ac:scratch
type searchScratch struct {
	matches []int32   // positions of signature-matching clusters
	bits    []uint64  // candidate bitmap for the block-scan kernels
	order   []int     // per-query dimension processing order
	widths  []float32 // sort keys backing order

	meter cost.Meter // this query's operation counts
	stats statDelta  // this query's statistics publication (nq == 1)
}

// ensureBits returns the bitmap sized for n objects.
//
//ac:noalloc
func (sc *searchScratch) ensureBits(n int) []uint64 {
	w := geom.BitmapWords(n)
	if cap(sc.bits) < w {
		//acvet:ignore noalloc amortized scratch growth; no alloc once bits reaches dataset size
		sc.bits = make([]uint64, w)
	}
	return sc.bits[:w]
}

// Search executes a spatial selection (Fig. 5): every materialized cluster's
// signature is checked against the query (one linear scan of the flat
// signature mirror); matching clusters are explored and their members
// verified by the columnar block-scan kernels, one dimension column at a
// time with the most selective dimensions first. Query statistics are
// updated for explored clusters and for their virtually explored candidate
// subclusters. emit is called once per qualifying object; returning false
// stops early (statistics and the reorganization schedule are still
// maintained). emit must not call back into the same index (the in-flight
// query defers its statistics publication; a reentrant exclusive operation
// panics).
//
// Search applies the query's statistics delta as soon as its read phase
// ends and pays its budgeted slice of pending reorganization work, exactly
// the paper's coupled schedule, so it requires exclusive access. Concurrent
// callers holding a shared lock use SearchRead/SearchIDsAppendRead/CountRead,
// which queue the delta instead.
//
//ac:noalloc
func (ix *Index) Search(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error {
	return ix.searchExclusive(q, rel, emit, nil, nil)
}

// searchExclusive runs the read phase and applies its statistics delta at
// once. Any deltas queued by earlier concurrent queries are applied first
// (exclusivePrep), so exclusive and concurrent queries interleave
// coherently.
//
//ac:noalloc
func (ix *Index) searchExclusive(q geom.Rect, rel geom.Relation, emit func(id uint32) bool, out *[]uint32, count *int) error {
	ix.exclusivePrep()
	sc := ix.getScratch()
	err := ix.searchRead(sc, q, rel, emit, out, count)
	if err == nil {
		ix.meter.Merge(sc.meter)
		ix.applyStats(&sc.stats, true)
	}
	ix.putScratch(sc)
	return err
}

// SearchRead is Search for concurrent callers: it is safe to run
// simultaneously with other *Read queries on the same index (the caller
// typically holds a shared lock excluding mutations). The query's
// statistics updates are recorded and queued rather than applied; they take
// effect when an exclusive holder drains them (every mutating operation
// does, as does TryDrainStats).
//
//ac:noalloc
func (ix *Index) SearchRead(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error {
	return ix.searchShared(q, rel, emit, nil, nil)
}

// SearchIDsAppendRead is SearchIDsAppend for concurrent callers; see
// SearchRead for the publication contract.
//
//ac:noalloc
func (ix *Index) SearchIDsAppendRead(dst []uint32, q geom.Rect, rel geom.Relation) ([]uint32, error) {
	err := ix.searchShared(q, rel, nil, &dst, nil)
	return dst, err
}

// CountRead is Count for concurrent callers; see SearchRead for the
// publication contract.
//
//ac:noalloc
func (ix *Index) CountRead(q geom.Rect, rel geom.Relation) (int, error) {
	n := 0
	err := ix.searchShared(q, rel, nil, nil, &n)
	return n, err
}

// searchShared runs the read phase and queues its statistics delta in the
// mailbox.
//
//ac:noalloc
func (ix *Index) searchShared(q geom.Rect, rel geom.Relation, emit func(id uint32) bool, out *[]uint32, count *int) error {
	sc := ix.getScratch()
	if err := ix.searchRead(sc, q, rel, emit, out, count); err != nil {
		ix.putScratch(sc)
		return err
	}
	ix.meter.Merge(sc.meter)
	ix.enqueueStats(statPub{sc: sc})
	return nil
}

// searchRead is the read phase of a selection: it delivers qualifying ids
// through exactly one of three sinks — emit (with early-stop support), out
// (append without the per-object indirection), or count (survivor totals
// only) — and records, rather than applies, every side effect: operation
// counts into sc.meter, statistics increments into sc.stats. It touches no
// index state that mutations change, so any number of read phases may run
// concurrently; mutations require exclusivity.
//
//ac:noalloc
func (ix *Index) searchRead(sc *searchScratch, q geom.Rect, rel geom.Relation, emit func(id uint32) bool, out *[]uint32, count *int) error {
	if q.Dims() != ix.cfg.Dims {
		//acvet:ignore noalloc cold argument-validation failure path
		return fmt.Errorf("core: query has %d dims, index has %d", q.Dims(), ix.cfg.Dims)
	}
	if !rel.Valid() {
		//acvet:ignore noalloc cold argument-validation failure path
		return fmt.Errorf("core: invalid relation %v", rel)
	}
	ix.readers.Add(1)
	defer ix.readers.Add(-1)
	sc.meter.Queries++
	sc.meter.SigChecks += int64(len(ix.clusters))
	sc.matches = ix.matchClusters(q, rel, sc.matches[:0])
	order := queryDimOrder(sc, q, rel)
	d := &sc.stats
	d.nq = 1
	d.candOff = append(d.candOff, 0)
	stopped := false
	for _, ci := range sc.matches {
		c := ix.clusters[ci]
		// Clustering statistics cover every signature-matching cluster,
		// even after the consumer stopped: the adaptive decisions model
		// which clusters the query distribution selects, not how much of
		// the answer a particular caller consumed. They are recorded here
		// and applied at publication.
		d.clusters = append(d.clusters, c)
		recordCandidateStats(c, q, rel, d)
		d.candOff = append(d.candOff, int32(len(d.cands)))
		if stopped {
			// The consumer gave up: the remaining matched clusters are
			// not explored, so no cost-meter charges (Seeks,
			// Explorations, BytesTransferred, ObjectsVerified) accrue
			// for them — only the statistics records above.
			continue
		}
		// Explore the cluster: one sequential region (one seek on
		// disk, n·objBytes transferred), then member verification.
		sc.meter.Explorations++
		sc.meter.Seeks++
		sc.meter.BytesTransferred += int64(len(c.ids)) * int64(ix.objBytes)
		n := len(c.ids)
		sc.meter.ObjectsVerified += int64(n)
		if n == 0 {
			continue
		}
		// Block verification: prune the candidate bitmap one dimension
		// column at a time. Every object still alive before a column
		// has that dimension inspected (2 float32 = 8 bytes), so the
		// verified-bytes accounting aggregates per-column survivor
		// counts; the scan stops as soon as the bitmap empties.
		bits := sc.ensureBits(n)
		geom.InitBitmap(bits, n)
		alive := n
		sb := ix.sigBounds[int(ci)*ix.sigStride() : (int(ci)+1)*ix.sigStride()]
		for _, dd := range order {
			// Signature-implied skip: the cluster's variation intervals
			// prove every member passes this dimension, so the column
			// scan is a no-op (sig.BoundsImplyDim, shared with the disk
			// engine).
			if sig.BoundsImplyDim(rel, sb, dd, q.Min[dd], q.Max[dd]) {
				continue
			}
			sc.meter.BytesVerified += int64(alive) * 8
			alive = geom.FilterDim(rel, c.lo[dd], c.hi[dd], q.Min[dd], q.Max[dd], bits)
			if alive == 0 {
				break
			}
		}
		if alive == 0 {
			continue
		}
		if count != nil {
			sc.meter.Results += int64(alive)
			*count += alive
			continue
		}
		if out != nil {
			sc.meter.Results += int64(alive)
			*out = geom.AppendSurvivors(*out, c.ids, bits)
			continue
		}
	emitSurvivors:
		for w, word := range bits {
			base := w << 6
			for word != 0 {
				j := mbits.TrailingZeros64(word)
				word &= word - 1
				sc.meter.Results++
				if !emit(c.ids[base+j]) {
					stopped = true
					break emitSurvivors
				}
			}
		}
	}
	return nil
}

// recordCandidateStats records the candidate subclusters virtually explored
// by the query (the relation-specific necessary conditions of
// sig.QueryDimMatch, specialized per relation so the pass over the candidate
// array carries no per-candidate dispatch) into the statistics delta; the
// matching indicators are incremented when the delta is published. It is the
// one candidate-statistics kernel of every query path, single and batched.
//
//ac:noalloc
func recordCandidateStats(c *Cluster, q geom.Rect, rel geom.Relation, d *statDelta) {
	cs := &c.cands
	switch rel {
	case geom.Intersects:
		for i, dd := range cs.dim {
			if cs.aLo[i] <= q.Max[dd] && q.Min[dd] <= cs.bHi[i] {
				d.cands = append(d.cands, int32(i))
			}
		}
	case geom.ContainedBy:
		for i, dd := range cs.dim {
			if cs.aHi[i] >= q.Min[dd] && cs.bLo[i] <= q.Max[dd] {
				d.cands = append(d.cands, int32(i))
			}
		}
	case geom.Encloses:
		for i, dd := range cs.dim {
			if cs.aLo[i] <= q.Min[dd] && cs.bHi[i] >= q.Max[dd] {
				d.cands = append(d.cands, int32(i))
			}
		}
	}
}

// Count returns the number of objects satisfying the selection. It sums the
// per-cluster survivor counts of the block scan directly — no ids are
// extracted or buffered. Like Search it requires exclusive access.
//
//ac:noalloc
func (ix *Index) Count(q geom.Rect, rel geom.Relation) (int, error) {
	n := 0
	err := ix.searchExclusive(q, rel, nil, nil, &n)
	return n, err
}

// SearchIDs collects the identifiers of all qualifying objects.
func (ix *Index) SearchIDs(q geom.Rect, rel geom.Relation) ([]uint32, error) {
	return ix.SearchIDsAppend(nil, q, rel)
}

// SearchIDsAppend appends the identifiers of all qualifying objects to dst
// and returns the extended slice. It bypasses the per-object emit
// indirection, and reusing the returned slice across calls makes
// steady-state selections allocation-free once its capacity covers the
// answer sets. Like Search it requires exclusive access.
//
//ac:noalloc
func (ix *Index) SearchIDsAppend(dst []uint32, q geom.Rect, rel geom.Relation) ([]uint32, error) {
	err := ix.searchExclusive(q, rel, nil, &dst, nil)
	return dst, err
}
