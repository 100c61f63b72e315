package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"accluster/internal/geom"
)

// loadIndex fills an index with n random objects.
func loadIndex(t *testing.T, ix *Index, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for id := 0; id < n; id++ {
		if err := ix.Insert(uint32(id), randomRect(rng, ix.Dims(), 0.4)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentStatsMatchSerial pins the statistics-publication contract:
// running the same query set through the concurrent read path (SearchRead +
// one DrainStats) must leave exactly the statistics the serial path leaves —
// the increments are integer additions, so any interleaving commutes. The
// configuration keeps every query inside one epoch (no decay applied), the
// regime where equality is exact rather than up to float rounding.
func TestConcurrentStatsMatchSerial(t *testing.T) {
	const (
		dims    = 6
		objects = 4000
		queries = 256
	)
	cfg := Config{Dims: dims, ReorgEvery: 1 << 30}
	build := func() *Index {
		ix := mustNew(t, cfg)
		loadIndex(t, ix, objects, 7)
		// Converge a clustering first so queries touch many clusters.
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 300; i++ {
			if err := ix.Search(randomRect(rng, dims, 0.2), geom.Intersects, func(uint32) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
		ix.Reorganize()
		return ix
	}
	qs := make([]geom.Rect, queries)
	rng := rand.New(rand.NewSource(9))
	for i := range qs {
		qs[i] = randomRect(rng, dims, 0.25)
	}

	serial := build()
	for _, q := range qs {
		if err := serial.Search(q, geom.Intersects, func(uint32) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}

	conc := build()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += 8 {
				if err := conc.SearchRead(qs[i], geom.Intersects, func(uint32) bool { return true }); err != nil {
					t.Errorf("concurrent query %d: %v", i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	conc.DrainStats()

	if sw, cw := serial.StatsWindow(), conc.StatsWindow(); sw != cw {
		t.Fatalf("statistics window: serial %g, concurrent %g", sw, cw)
	}
	// No epoch rolled and no mutation ran between the builds, so the
	// cluster sets are identical and Snapshot (breadth-first, deterministic)
	// aligns positionally.
	ss, cs := serial.Snapshot(), conc.Snapshot()
	if len(ss) != len(cs) {
		t.Fatalf("cluster count: serial %d, concurrent %d", len(ss), len(cs))
	}
	for i := range ss {
		if ss[i].Signature.String() != cs[i].Signature.String() {
			t.Fatalf("cluster %d: signature %s vs %s", i, ss[i].Signature, cs[i].Signature)
		}
		if ss[i].Q != cs[i].Q {
			t.Fatalf("cluster %d: Q %g vs %g", i, ss[i].Q, cs[i].Q)
		}
		for k := range ss[i].CandQ {
			if ss[i].CandQ[k] != cs[i].CandQ[k] {
				t.Fatalf("cluster %d candidate %d: q %g vs %g", i, k, ss[i].CandQ[k], cs[i].CandQ[k])
			}
		}
	}
	sm, cm := serial.Meter(), conc.Meter()
	if sm != cm {
		t.Fatalf("meters diverge:\nserial     %+v\nconcurrent %+v", sm, cm)
	}
}

// TestExclusiveStatsMatchDeferredAcrossEpochs pins the two ways a query's
// statistics delta is published against each other where an epoch rolls:
// the exclusive entry points (Search, SearchIDsAppend, Count) apply the
// delta at once, the *Read entry points queue it for DrainStats. With a
// drain after every deferred query the two twins must stay bit-identical —
// window, epoch, every cluster's Q, every candidate's q and the meters —
// across several epoch boundaries (ReorgEvery 7). BackgroundReorg keeps the
// structure frozen once the warm-up clustering has converged, so the
// comparison is exact.
func TestExclusiveStatsMatchDeferredAcrossEpochs(t *testing.T) {
	const dims = 4
	cfg := Config{Dims: dims, ReorgEvery: 7, BackgroundReorg: true}
	all := func(uint32) bool { return true }
	for _, rel := range []geom.Relation{geom.Intersects, geom.ContainedBy, geom.Encloses} {
		excl, deferred := buildTwin(t, cfg, 2000, 71, 0.3)
		warm := rand.New(rand.NewSource(72))
		for i := 0; i < 60; i++ {
			q := randomRect(warm, dims, 0.5)
			if err := excl.Search(q, geom.Intersects, all); err != nil {
				t.Fatal(err)
			}
			if err := deferred.Search(q, geom.Intersects, all); err != nil {
				t.Fatal(err)
			}
		}
		excl.Reorganize()
		deferred.Reorganize()
		diffStats(t, "after warm-up", snapshotStats(excl), snapshotStats(deferred))
		if excl.Clusters() < 3 {
			t.Fatalf("rel=%v: warm-up formed %d clusters; the comparison would cover the root only", rel, excl.Clusters())
		}

		startEpoch := excl.Epoch()
		rng := rand.New(rand.NewSource(73))
		var a, b []uint32
		for i := 0; i < 4*cfg.ReorgEvery+3; i++ {
			q := randomRect(rng, dims, 0.6)
			if rel == geom.Encloses {
				q = pointRect(rng, dims)
			}
			var err1, err2 error
			switch i % 4 {
			case 0:
				err1 = excl.Search(q, rel, all)
				err2 = deferred.SearchRead(q, rel, all)
			case 1:
				a, err1 = excl.SearchIDsAppend(a[:0], q, rel)
				b, err2 = deferred.SearchIDsAppendRead(b[:0], q, rel)
				if !equalIDs(a, b) {
					t.Fatalf("rel=%v query %d: exclusive ids %v, deferred %v", rel, i, a, b)
				}
			case 2:
				var n1, n2 int
				n1, err1 = excl.Count(q, rel)
				n2, err2 = deferred.CountRead(q, rel)
				if n1 != n2 {
					t.Fatalf("rel=%v query %d: exclusive count %d, deferred %d", rel, i, n1, n2)
				}
			case 3:
				// Early stop: statistics still cover every matched
				// cluster, charges only the explored ones.
				left1, left2 := 3, 3
				err1 = excl.Search(q, rel, func(uint32) bool { left1--; return left1 > 0 })
				err2 = deferred.SearchRead(q, rel, func(uint32) bool { left2--; return left2 > 0 })
			}
			if err1 != nil || err2 != nil {
				t.Fatalf("rel=%v query %d: %v / %v", rel, i, err1, err2)
			}
			deferred.DrainStats()
			diffStats(t, fmt.Sprintf("rel=%v query %d", rel, i), snapshotStats(excl), snapshotStats(deferred))
			if em, dm := excl.Meter(), deferred.Meter(); em != dm {
				t.Fatalf("rel=%v query %d: meters diverge:\nexclusive %+v\ndeferred  %+v", rel, i, em, dm)
			}
		}
		if rolled := excl.Epoch() - startEpoch; rolled < 3 {
			t.Fatalf("rel=%v: %d epochs rolled, want ≥ 3", rel, rolled)
		}
	}
}

// TestConcurrentReadAnswersMatchSerial pins exactness under concurrency:
// with no mutations interleaved, concurrent readers must return the serial
// answer sets.
func TestConcurrentReadAnswersMatchSerial(t *testing.T) {
	const dims = 5
	ix := mustNew(t, Config{Dims: dims})
	loadIndex(t, ix, 3000, 17)
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 200; i++ {
		if err := ix.Search(randomRect(rng, dims, 0.3), geom.Intersects, func(uint32) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	qs := make([]geom.Rect, 64)
	rels := make([]geom.Relation, len(qs))
	want := make([][]uint32, len(qs))
	for i := range qs {
		qs[i] = randomRect(rng, dims, 0.35)
		rels[i] = geom.Relation(i % 3)
		ids, err := ix.SearchIDs(qs[i], rels[i])
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		want[i] = ids
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []uint32
			for i := range qs {
				got, err := ix.SearchIDsAppendRead(buf[:0], qs[i], rels[i])
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				buf = got
				sorted := append([]uint32(nil), got...)
				sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
				if len(sorted) != len(want[i]) {
					t.Errorf("query %d: %d results, want %d", i, len(sorted), len(want[i]))
					return
				}
				for k := range sorted {
					if sorted[k] != want[i][k] {
						t.Errorf("query %d: answer mismatch at %d", i, k)
						return
					}
				}
				// Counting must agree with retrieval under concurrency too.
				n, err := ix.CountRead(qs[i], rels[i])
				if err != nil || n != len(want[i]) {
					t.Errorf("query %d: count %d (%v), want %d", i, n, err, len(want[i]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ix.DrainStats()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainStatsBacklog exercises the mailbox paths: deltas accumulate
// while no exclusive holder runs, then one drain applies them all in
// enqueue order, and the backlog gauge tracks.
func TestDrainStatsBacklog(t *testing.T) {
	ix := mustNew(t, Config{Dims: 3, ReorgEvery: 1 << 30})
	loadIndex(t, ix, 500, 27)
	q := geom.Rect{Min: []float32{0, 0, 0}, Max: []float32{1, 1, 1}}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := ix.CountRead(q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.StatsBacklog(); got != n {
		t.Fatalf("backlog %d, want %d", got, n)
	}
	ix.DrainStats()
	if got := ix.StatsBacklog(); got != 0 {
		t.Fatalf("backlog %d after drain", got)
	}
	if w := ix.StatsWindow(); w != n {
		t.Fatalf("window %g, want %d", w, n)
	}
	if q := ix.Meter().Queries; q != n {
		t.Fatalf("meter queries %d, want %d", q, n)
	}
}

// TestTryDrainStatsRespectsReaders pins the opportunistic publication
// policy: below the watermark a held lock skips publication entirely; the
// deltas survive for the next exclusive holder.
func TestTryDrainStatsRespectsReaders(t *testing.T) {
	ix := mustNew(t, Config{Dims: 2, ReorgEvery: 1 << 30})
	loadIndex(t, ix, 100, 37)
	q := geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}
	if _, err := ix.CountRead(q, geom.Intersects); err != nil {
		t.Fatal(err)
	}
	var mu sync.RWMutex
	mu.RLock()
	//acvet:ignore lockdiscipline deliberately drains under the read lock to pin the blocked-drain policy
	if ix.TryDrainStats(&mu) {
		t.Fatal("TryDrainStats reported reorg work on a blocked drain")
	}
	if ix.StatsBacklog() != 1 {
		t.Fatalf("delta lost: backlog %d", ix.StatsBacklog())
	}
	mu.RUnlock()
	ix.TryDrainStats(&mu)
	if ix.StatsBacklog() != 0 {
		t.Fatalf("delta not applied: backlog %d", ix.StatsBacklog())
	}
	if w := ix.StatsWindow(); w != 1 {
		t.Fatalf("window %g, want 1", w)
	}
}
