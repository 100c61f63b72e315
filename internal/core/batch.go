package core

import (
	"fmt"

	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/sig"
)

// Batched selection: one engine pass for N queries. A looped single-query
// caller pays N scans of the flat signature mirror, N statistics
// publications and — when several queries select the same cluster — N
// separate walks over that cluster's member columns. The batch path
// restructures the same work around the data instead of the queries:
//
//   - the signature mirror is scanned once for the whole batch with the
//     transposed query-block kernel (sig.MatchBoundsBatch),
//   - candidate clusters are grouped across queries, so each explored
//     cluster's columns are verified against every interested query while
//     they are hot in cache,
//   - the whole batch records one statistics delta (publish.go), applied at
//     once by an exclusive caller or queued as one mailbox entry — one
//     drain — by a concurrent one.
//
// Per-query observable state is preserved exactly: each query's result set,
// its cost-meter increments and its statistics increments (cluster Q,
// candidate q, one window tick per query, the epoch trigger between
// queries) equal the looped single-query execution against the same
// structure — the batch is one structural snapshot, which is also what a
// concurrent caller issuing N SearchRead calls back-to-back observes.

// batchScratch holds the per-batch buffers of one in-flight batched
// selection, pooled like searchScratch so steady-state batches allocate
// nothing. Like searchScratch it returns to the pool once its statistics
// delta is applied — at once for an exclusive caller, after the mailbox
// drain for a concurrent one.
//
//ac:scratch
type batchScratch struct {
	bq    sig.BatchQueries // query-coordinate SoA of the batch
	match sig.BatchMatch   // cluster-major signature matches
	qbits []uint64         // query-survivor bitmap of the signature pass

	orders []int     // flat nq×dims per-query dimension orders
	widths []float32 // sort keys backing orders

	perQ [][]uint32 // per-query result accumulators (cluster-major fill)
	bits []uint64   // member-verification bitmap

	meter cost.Meter // the whole batch's operation counts
	stats statDelta  // the whole batch's statistics publication
}

// ensureBits returns the member-verification bitmap sized for n objects.
//
//ac:noalloc
func (bc *batchScratch) ensureBits(n int) []uint64 {
	w := geom.BitmapWords(n)
	if cap(bc.bits) < w {
		//acvet:ignore noalloc amortized scratch growth; no alloc once bits reaches dataset size
		bc.bits = make([]uint64, w)
	}
	return bc.bits[:w]
}

// getBatchScratch takes a batch scratch from the pool (its buffers are
// reset).
//
//ac:noalloc
func (ix *Index) getBatchScratch() *batchScratch {
	if bc, ok := ix.bscratch.Get().(*batchScratch); ok {
		return bc
	}
	//acvet:ignore noalloc pool-miss construction; steady state reuses pooled scratch
	return &batchScratch{}
}

// putBatchScratch clears the per-batch state and returns bc to the pool.
//
//ac:noalloc
func (ix *Index) putBatchScratch(bc *batchScratch) {
	bc.meter.Reset()
	bc.stats.reset()
	ix.bscratch.Put(bc)
}

// validateBatch rejects a malformed batch before any of it executes: unlike
// a loop of single queries, which errors mid-stream with the earlier
// queries already charged, a batch is atomic — either every query is valid
// or nothing runs.
func (ix *Index) validateBatch(qs []geom.Rect, rel geom.Relation) error {
	if !rel.Valid() {
		//acvet:ignore noalloc cold argument-validation failure path
		return fmt.Errorf("core: invalid relation %v", rel)
	}
	for i := range qs {
		if qs[i].Dims() != ix.cfg.Dims {
			//acvet:ignore noalloc cold argument-validation failure path
			return fmt.Errorf("core: batch query %d has %d dims, index has %d", i, qs[i].Dims(), ix.cfg.Dims)
		}
	}
	return nil
}

// SearchBatchRead executes every query in qs in one engine pass and fills
// dst with the per-query result sets (dst.Query(i) holds query i's ids, in
// the same order SearchIDsAppendRead would produce). It is the batch twin
// of SearchIDsAppendRead: safe to run simultaneously with other *Read
// queries under a shared lock, with the whole batch's statistics recorded
// and queued as a single publication — one mailbox entry, one drain —
// while the applied increments stay exactly those of the looped single
// queries. The batch reads one structural snapshot; an invalid query fails
// the whole batch before any of it executes.
//
//ac:noalloc
func (ix *Index) SearchBatchRead(dst *geom.IDBatch, qs []geom.Rect, rel geom.Relation) error {
	if err := ix.validateBatch(qs, rel); err != nil {
		return err
	}
	dst.Reset(len(qs))
	if len(qs) == 0 {
		return nil
	}
	bc := ix.getBatchScratch()
	ix.batchRead(bc, qs, rel, dst)
	ix.meter.Merge(bc.meter)
	ix.enqueueStats(statPub{bc: bc})
	return nil
}

// SearchIDsBatch is SearchBatchRead for exclusive-access callers: the batch
// statistics delta is applied as soon as the read phase ends — window ticks
// and epoch triggers interleaved exactly as the looped exclusive singles
// would — and each query pays its budgeted slice of pending reorganization
// work.
//
//ac:noalloc
func (ix *Index) SearchIDsBatch(dst *geom.IDBatch, qs []geom.Rect, rel geom.Relation) error {
	if err := ix.validateBatch(qs, rel); err != nil {
		return err
	}
	ix.exclusivePrep()
	dst.Reset(len(qs))
	if len(qs) == 0 {
		return nil
	}
	bc := ix.getBatchScratch()
	ix.batchRead(bc, qs, rel, dst)
	ix.meter.Merge(bc.meter)
	ix.applyStats(&bc.stats, true)
	ix.putBatchScratch(bc)
	return nil
}

// batchRead is the read phase of a batched selection. It touches no index
// state that mutations change and records every side effect into the batch
// scratch — operation counts into bc.meter, statistics increments into
// bc.stats, one record per (cluster,query) match in the kernel's
// cluster-major order — so any number of read phases (single or batched)
// may run concurrently.
//
//ac:noalloc
func (ix *Index) batchRead(bc *batchScratch, qs []geom.Rect, rel geom.Relation, dst *geom.IDBatch) {
	ix.readers.Add(1)
	defer ix.readers.Add(-1)
	nq := len(qs)
	dims := ix.cfg.Dims
	nc := len(ix.clusters)
	bc.meter.Queries += int64(nq)
	bc.meter.SigChecks += int64(nq) * int64(nc)

	// One pass over the signature mirror for the whole batch: the N query
	// rectangles become coordinate columns, each signature the scalar side
	// of the block-scan kernels.
	bc.bq.Reset(qs, dims)
	qw := geom.BitmapWords(nq)
	if cap(bc.qbits) < qw {
		//acvet:ignore noalloc amortized scratch growth; no alloc once qbits covers the batch size
		bc.qbits = make([]uint64, qw)
	}
	sig.MatchBoundsBatch(ix.sigBounds, nc, dims, &bc.bq, rel, ix.sigSel, bc.qbits[:qw], &bc.match)

	bd := &bc.stats
	bd.nq = nq
	bd.query = bc.match.QIdx // record j is match entry j
	bd.candOff = append(bd.candOff[:0], 0)

	// Per-query dimension orders, computed once per batch.
	if cap(bc.orders) < nq*dims {
		//acvet:ignore noalloc amortized scratch growth; no alloc once orders covers the batch size
		bc.orders = make([]int, 0, nq*dims)
		//acvet:ignore noalloc amortized scratch growth; no alloc once widths covers the batch size
		bc.widths = make([]float32, 0, nq*dims)
	}
	orders, widths := bc.orders[:nq*dims], bc.widths[:nq*dims]
	for qi := range qs {
		geom.QueryDimOrder(orders[qi*dims:qi*dims+dims], widths[qi*dims:qi*dims+dims], qs[qi], rel)
	}

	if cap(bc.perQ) < nq {
		//acvet:ignore noalloc amortized scratch growth; no alloc once perQ covers the batch size
		next := make([][]uint32, nq)
		copy(next, bc.perQ)
		bc.perQ = next
	}
	bc.perQ = bc.perQ[:nq]
	for i := range bc.perQ {
		bc.perQ[i] = bc.perQ[i][:0]
	}

	// Cluster-major statistics recording and verification: each matched
	// cluster's candidate array and member columns are walked for every
	// interested query back-to-back, while they are hot in cache. The
	// per-(cluster,query) work and meter charges are exactly the
	// single-query path's; the records land in match order, which is what
	// bd.query indexes.
	stride := ix.sigStride()
	for p, ci := range bc.match.Clusters {
		c := ix.clusters[ci]
		n := len(c.ids)
		sb := ix.sigBounds[int(ci)*stride : (int(ci)+1)*stride]
		for _, q32 := range bc.match.QIdx[bc.match.QOff[p]:bc.match.QOff[p+1]] {
			bd.clusters = append(bd.clusters, c)
			recordCandidateStats(c, qs[q32], rel, bd)
			bd.candOff = append(bd.candOff, int32(len(bd.cands)))
		}
		for _, q32 := range bc.match.QIdx[bc.match.QOff[p]:bc.match.QOff[p+1]] {
			qi := int(q32)
			q := qs[qi]
			bc.meter.Explorations++
			bc.meter.Seeks++
			bc.meter.BytesTransferred += int64(n) * int64(ix.objBytes)
			bc.meter.ObjectsVerified += int64(n)
			if n == 0 {
				continue
			}
			bits := bc.ensureBits(n)
			geom.InitBitmap(bits, n)
			alive := n
			for _, dd := range orders[qi*dims : qi*dims+dims] {
				if sig.BoundsImplyDim(rel, sb, dd, q.Min[dd], q.Max[dd]) {
					continue
				}
				bc.meter.BytesVerified += int64(alive) * 8
				alive = geom.FilterDim(rel, c.lo[dd], c.hi[dd], q.Min[dd], q.Max[dd], bits)
				if alive == 0 {
					break
				}
			}
			if alive == 0 {
				continue
			}
			bc.meter.Results += int64(alive)
			bc.perQ[qi] = geom.AppendSurvivors(bc.perQ[qi], c.ids, bits)
		}
	}

	// Concatenate the per-query accumulators into the flat result batch.
	for qi := 0; qi < nq; qi++ {
		dst.IDs = append(dst.IDs, bc.perQ[qi]...)
		dst.Off[qi+1] = int32(len(dst.IDs))
	}
}
