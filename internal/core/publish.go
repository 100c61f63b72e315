package core

// Statistics publication: the one path by which a query's bookkeeping
// reaches the index.
//
// The paper couples every query with bookkeeping — the explored clusters'
// query indicators Q, the candidate subclusters' indicators q, the decayed
// statistics window and the reorganization schedule all advance per query
// (§3.1) — which naively makes every search a write. Every query is split
// in two instead:
//
//   - The *read phase* (searchRead, batchRead) touches only state that
//     mutations keep frozen while readers are in flight: the cluster list,
//     the signature mirror, the member columns and the candidate bounds.
//     Everything the query would have written — cost-meter counts and the
//     statistics increments — is recorded into its own pooled scratch.
//   - The *publication phase* applies the recorded statistics delta through
//     applyStats. Meter deltas merge immediately into a SyncMeter (its own
//     short mutex, safe under the shared lock). An exclusive caller (Search,
//     SearchIDsAppend, Count, SearchIDsBatch) applies its statistics delta
//     at once and pays its budgeted reorganization steps. A concurrent
//     caller (the *Read methods) enqueues it into a small mailbox instead,
//     applied by the next caller that holds the index exclusively: every
//     mutating operation drains the mailbox on entry, and lock-owning
//     wrappers (accluster.Adaptive, internal/shard) call TryDrainStats after
//     each query — opportunistically with TryLock, so readers never wait for
//     publication, with a blocking drain only once the backlog reaches
//     StatsBacklogMax.
//
// Applied increments are the same either way (+1 per explored cluster and
// matched candidate, one window tick per query), so after all deltas drain,
// concurrent and exclusive execution of the same query set leave identical
// statistics up to the commutative reordering of the additions.

import (
	"sync"
)

// StatsBacklogMax bounds the statistics-publication mailbox: once this many
// query deltas are queued, the next publisher drains with a blocking lock
// acquisition instead of an opportunistic TryLock, capping both the memory
// pinned by queued scratches and the staleness of the adaptive statistics.
const StatsBacklogMax = 128

// statDelta records the statistics publication nq queries owe (one for a
// single query, the batch size for a batch): one record per (cluster,query)
// signature match — the cluster (one Q increment) and the candidate
// subclusters the query virtually explored (one q increment each), as a flat
// index list sliced by candOff. A batch lays its records out cluster-major,
// so recording walks each cluster's candidate columns once, hot, for all its
// interested queries; query[j] is record j's position in the batch (nil for
// a single query, whose records all belong to query 0).
type statDelta struct {
	nq       int
	clusters []*Cluster
	candOff  []int32 // len(clusters)+1 offsets into cands
	cands    []int32 // flat matched-candidate indices
	query    []int32 // batch position of each record's query; nil if nq == 1

	// Query-major transpose of the records, built only when applyStats
	// replays a batch query by query: qcIdx[qcOff[qi]:qcOff[qi+1]] are the
	// records of query qi in ascending cluster order — the order the
	// single-query read phase records them.
	qcOff []int32
	qcIdx []int32
}

func (d *statDelta) reset() {
	for i := range d.clusters {
		d.clusters[i] = nil // do not pin merged-away clusters in the pool
	}
	d.nq = 0
	d.clusters = d.clusters[:0]
	d.candOff = d.candOff[:0]
	d.cands = d.cands[:0]
	d.query = nil
}

// transpose builds the query-major view qcOff/qcIdx of a batch delta
// (counting sort over the records' query positions; within a query the
// records stay in ascending cluster order).
func (d *statDelta) transpose() {
	nq := d.nq
	if cap(d.qcOff) < nq+1 {
		d.qcOff = make([]int32, nq+1)
	}
	d.qcOff = d.qcOff[:nq+1]
	clear(d.qcOff)
	for _, qi := range d.query {
		d.qcOff[qi+1]++
	}
	for i := 0; i < nq; i++ {
		d.qcOff[i+1] += d.qcOff[i]
	}
	if cap(d.qcIdx) < len(d.query) {
		d.qcIdx = make([]int32, len(d.query))
	}
	d.qcIdx = d.qcIdx[:len(d.query)]
	for j, qi := range d.query {
		d.qcIdx[d.qcOff[qi]] = int32(j)
		d.qcOff[qi]++
	}
	// The cursor pass shifted every offset to the start of the next
	// query's range; shift back.
	copy(d.qcOff[1:], d.qcOff[:nq])
	d.qcOff[0] = 0
}

// statPub is one mailbox entry: either a single query's scratch or a whole
// batch's. Exactly one field is set; the entry owns the scratch until the
// delta is applied, when it returns to its pool.
type statPub struct {
	sc *searchScratch
	bc *batchScratch
}

// getScratch takes a query scratch from the pool (its buffers are reset).
//
//ac:noalloc
func (ix *Index) getScratch() *searchScratch {
	if sc, ok := ix.scratch.Get().(*searchScratch); ok {
		return sc
	}
	//acvet:ignore noalloc pool-miss construction; steady state reuses pooled scratch
	return &searchScratch{}
}

// putScratch clears the per-query state and returns sc to the pool.
//
//ac:noalloc
func (ix *Index) putScratch(sc *searchScratch) {
	sc.meter.Reset()
	sc.stats.reset()
	ix.scratch.Put(sc)
}

// enqueueStats queues a completed read phase's statistics delta — a whole
// batch is one mailbox entry, so it costs one drain — for the next exclusive
// holder; safe under the shared lock.
//
//ac:noalloc
func (ix *Index) enqueueStats(p statPub) {
	ix.pendMu.Lock()
	ix.pending = append(ix.pending, p)
	ix.pendN.Store(int32(len(ix.pending)))
	ix.pendMu.Unlock()
}

// StatsBacklog reports the number of queued statistics publications. It is
// safe to call from any goroutine.
func (ix *Index) StatsBacklog() int { return int(ix.pendN.Load()) }

// exclusivePrep is the entry guard of every operation requiring exclusive
// access: it rejects calls from inside an in-flight query on the same
// goroutine (the one way the exclusivity contract can be broken without a
// data race — an emit callback calling back into the index) and applies all
// queued statistics publications so the operation observes current
// statistics. It returns the number of queries applied.
//
//ac:excl
func (ix *Index) exclusivePrep() int {
	if ix.readers.Load() != 0 {
		panic("core: exclusive operation during an in-flight query (emit must not call back into the index)")
	}
	return ix.applyPending()
}

// applyPending applies every queued statistics delta in enqueue order and
// returns the number of queries applied (a batched entry counts as its
// query count). Caller must hold the index exclusively.
//
//ac:excl
func (ix *Index) applyPending() int {
	if ix.pendN.Load() == 0 {
		return 0
	}
	ix.pendMu.Lock()
	batch := ix.pending
	ix.pending = ix.pendSpare
	ix.pendSpare = nil
	ix.pendN.Store(0)
	ix.pendMu.Unlock()
	n := 0
	for i, p := range batch {
		if p.sc != nil {
			n += p.sc.stats.nq
			ix.applyStats(&p.sc.stats, false)
			ix.putScratch(p.sc)
		} else {
			n += p.bc.stats.nq
			ix.applyStats(&p.bc.stats, false)
			ix.putBatchScratch(p.bc)
		}
		batch[i] = statPub{}
	}
	ix.pendMu.Lock()
	if ix.pendSpare == nil {
		ix.pendSpare = batch[:0]
	}
	ix.pendMu.Unlock()
	return n
}

// applyStats performs a statistics delta's publication: Q of every recorded
// cluster, q of every recorded candidate, one statistics window tick per
// query and the epoch trigger. Clusters merged away since the read phase are
// skipped; their statistics died with them, as they would have had the merge
// preceded the query. An exclusive caller — one that ran the read phase
// itself while holding the index — also pays, after each query, one budgeted
// slice of pending reorganization work, the paper's coupled schedule
// (Config.BackgroundReorg leaves that work to an external drainer).
func (ix *Index) applyStats(d *statDelta, exclusive bool) {
	if ix.sinceReorg+d.nq < ix.cfg.ReorgEvery && !(exclusive && len(ix.reorgQ) > 0) {
		// No epoch boundary inside the delta and no reorganization work
		// to interleave between an exclusive caller's queries: the
		// per-query replay's observable effects — syncStats, which
		// early-returns once a cluster is synced to the current epoch,
		// and the commutative increments and window ticks — are
		// order-independent, so one walk over the records in their
		// recorded (cluster-major) order produces the identical state.
		for j := range d.clusters {
			ix.applyRecord(d, j)
		}
		ix.window += float64(d.nq)
		ix.sinceReorg += d.nq
		return
	}
	// Replay query by query, exactly the looped single-query order: each
	// query's increments, then its window tick and epoch trigger, then its
	// reorganization step.
	if d.nq > 1 {
		d.transpose()
	}
	for qi := 0; qi < d.nq; qi++ {
		if d.nq == 1 {
			for j := range d.clusters {
				ix.applyRecord(d, j)
			}
		} else {
			for _, j := range d.qcIdx[d.qcOff[qi]:d.qcOff[qi+1]] {
				ix.applyRecord(d, int(j))
			}
		}
		ix.window++
		ix.sinceReorg++
		if ix.sinceReorg >= ix.cfg.ReorgEvery {
			ix.beginEpoch()
		}
		if exclusive && !ix.cfg.BackgroundReorg && len(ix.reorgQ) > 0 {
			ix.drain(ix.cfg.ReorgBudgetClusters, ix.cfg.ReorgBudgetObjects)
		}
	}
}

// applyRecord applies record j of d: one Q increment for its cluster and one
// q increment per matched candidate, on statistics synced to the current
// epoch.
func (ix *Index) applyRecord(d *statDelta, j int) {
	c := d.clusters[j]
	if c.removed {
		return
	}
	ix.syncStats(c)
	c.q++
	cq := c.cands.q
	for _, k := range d.cands[d.candOff[j]:d.candOff[j+1]] {
		cq[k]++
	}
}

// maxDrainReorgSteps caps the budgeted reorganization steps one DrainStats
// call runs when a batch of queued publications is applied at once: the
// exclusive cadence owes one step per query, but paying a whole
// StatsBacklogMax batch's worth of steps inside a single exclusive section
// would reintroduce exactly the latency cliff the budgeted scheduler
// removed. The remainder stays queued for later drains (or Reorganize).
const maxDrainReorgSteps = 8

// DrainStats applies all queued statistics publications and, unless the
// index defers maintenance to a background drainer
// (Config.BackgroundReorg), runs one budgeted reorganization step per
// applied query — the exclusive callers' maintenance cadence — capped at
// maxDrainReorgSteps per call so the exclusive section stays bounded even
// when a full mailbox drains at once. It reports whether reorganization
// work remains queued. The caller must hold the index exclusively.
//
//ac:excl
func (ix *Index) DrainStats() bool {
	applied := ix.exclusivePrep()
	if !ix.cfg.BackgroundReorg {
		if applied > maxDrainReorgSteps {
			applied = maxDrainReorgSteps
		}
		for i := 0; i < applied && len(ix.reorgQ) > 0; i++ {
			ix.drain(ix.cfg.ReorgBudgetClusters, ix.cfg.ReorgBudgetObjects)
		}
	}
	return len(ix.reorgQ) > 0
}

// TryDrainStats publishes queued statistics under mu, the reader/writer lock
// through which the caller serializes exclusive access to this index. It
// must be called WITHOUT mu held. Publication is opportunistic: while the
// backlog is below StatsBacklogMax a failed TryLock just leaves the deltas
// for the next exclusive holder, so concurrent readers never wait on
// publication; at the watermark it blocks to bound the backlog. Reports
// whether reorganization work is pending (the background-drainer wake
// signal); false when nothing was drained.
func (ix *Index) TryDrainStats(mu *sync.RWMutex) bool {
	if ix.pendN.Load() == 0 {
		return false
	}
	if ix.StatsBacklog() < StatsBacklogMax {
		if !mu.TryLock() {
			return false
		}
	} else {
		mu.Lock()
	}
	pending := ix.DrainStats()
	mu.Unlock()
	return pending
}
