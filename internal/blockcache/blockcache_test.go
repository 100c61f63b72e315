package blockcache

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"accluster/internal/geom"
)

// mkRegion builds a filled region of n members in dims dimensions with
// private storage.
func mkRegion(n, dims int, fill float32) *Region {
	r := new(Region)
	r.Reset(n, dims)
	fillRegion(r, dims, fill)
	return r
}

// fillRegion numbers the members and sets every interval to [fill, fill+1].
func fillRegion(r *Region, dims int, fill float32) {
	for p, pg := range r.Pages() {
		ids, _ := pg.Columns()
		for i := range ids {
			ids[i] = uint32(p*PageSlots + i)
		}
		for d := 0; d < dims; d++ {
			for i := range pageLo(pg, d) {
				pageLo(pg, d)[i] = fill
				pageHi(pg, d)[i] = fill + 1
			}
		}
	}
}

// pageLo and pageHi return the interval starts and ends of page pg's
// members in dimension d.
func pageLo(pg *Page, d int) []float32 { o := 2 * d * PageSlots; return pg.cols[o : o+pg.n] }
func pageHi(pg *Page, d int) []float32 { o := (2*d + 1) * PageSlots; return pg.cols[o : o+pg.n] }

// lo0 returns the first member's interval start in dimension 0.
func lo0(r *Region) float32 { return pageLo(r.Pages()[0], 0)[0] }

func TestRegionResetLayout(t *testing.T) {
	r := new(Region)
	r.Reset(40, 3)
	if r.Len() != 40 || len(r.Pages()) != pagesFor(40) {
		t.Fatalf("shape: len=%d pages=%d", r.Len(), len(r.Pages()))
	}
	total := 0
	for p, pg := range r.Pages() {
		want := min(PageSlots, 40-p*PageSlots)
		if pg.n != want || len(pg.IDs()) != want {
			t.Fatalf("page %d holds %d members, want %d", p, pg.n, want)
		}
		for d := 0; d < 3; d++ {
			if len(pageLo(pg, d)) != want || len(pageHi(pg, d)) != want {
				t.Fatalf("page %d column %d: %d/%d", p, d, len(pageLo(pg, d)), len(pageHi(pg, d)))
			}
		}
		total += pg.n
	}
	if total != 40 {
		t.Fatalf("pages hold %d members, want 40", total)
	}
	// Columns must not alias: writing one must not leak into neighbours.
	pg := r.Pages()[0]
	pageLo(pg, 0)[PageSlots-1] = 42
	pageHi(pg, 0)[0] = 43
	if pageHi(pg, 0)[PageSlots-1] == 42 || pageLo(pg, 1)[0] == 43 {
		t.Fatal("columns alias each other")
	}
	// Shrinking reuses the pages; the layout must stay disjoint.
	first := r.Pages()[0]
	r.Reset(4, 3)
	if len(r.Pages()) != 1 || r.Pages()[0] != first {
		t.Fatal("shrink reallocated the pages")
	}
	pageLo(first, 2)[3] = 7
	if pageHi(first, 2)[0] == 7 || pageLo(first, 1)[3] == 7 {
		t.Fatal("columns alias after shrink")
	}
	// The charge covers exactly the pages in use.
	if r.Bytes() != pageBytes(3)+regionOverhead {
		t.Fatalf("charge %d, want one page plus overhead", r.Bytes())
	}
}

func TestGetPutHitMiss(t *testing.T) {
	c := New(1 << 20)
	k := Key{Gen: 1, Cluster: 7}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	r := mkRegion(8, 2, 0.5)
	got := c.Put(k, r)
	if got != r {
		t.Fatal("first Put must admit the caller's region")
	}
	c.Unpin(got)
	again, ok := c.Get(k)
	if !ok || again != r {
		t.Fatal("resident region not returned")
	}
	c.Unpin(again)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.UsedBytes != r.Bytes() {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPutRace_KeepsCanonical(t *testing.T) {
	c := New(1 << 20)
	k := Key{Gen: 1, Cluster: 1}
	first := mkRegion(8, 2, 0.1)
	second := mkRegion(8, 2, 0.2)
	a := c.Put(k, first)
	b := c.Put(k, second) // concurrent decode of the same key lost the race
	if a != first || b != first {
		t.Fatal("Put must return the first-admitted region for the key")
	}
	c.Unpin(a)
	c.Unpin(b)
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("duplicate insert created %d entries", st.Entries)
	}
}

func TestGenerationIsolation(t *testing.T) {
	c := New(1 << 20)
	r1 := mkRegion(4, 2, 0.1)
	c.Unpin(c.Put(Key{Gen: 1, Cluster: 0}, r1))
	if _, ok := c.Get(Key{Gen: 2, Cluster: 0}); ok {
		t.Fatal("a new generation must not see the old generation's entries")
	}
	g1, g2 := NextGen(), NextGen()
	if g1 == g2 {
		t.Fatal("generations must be unique")
	}
}

func TestBudgetEvictionClock(t *testing.T) {
	// Budget sized for ~4 of the 8 regions.
	one := mkRegion(64, 4, 0).Bytes()
	c := New(4 * one)
	for i := 0; i < 8; i++ {
		r := mkRegion(64, 4, float32(i))
		c.Unpin(c.Put(Key{Gen: 1, Cluster: int32(i)}, r))
	}
	st := c.Stats()
	if st.UsedBytes > st.BudgetBytes {
		t.Fatalf("over budget: %+v", st)
	}
	if st.Evictions == 0 || st.Entries > 4 {
		t.Fatalf("no eviction happened: %+v", st)
	}
	// Second chance: a just-referenced entry survives the next eviction —
	// the sweep grants it another pass, and every other entry it clears on
	// the way is evictable before the hand can come around again.
	var kept Key
	for i := 7; i >= 0; i-- {
		k := Key{Gen: 1, Cluster: int32(i)}
		if c.Contains(k) {
			kept = k
			break
		}
	}
	for i := 8; i < 11; i++ {
		r, ok := c.Get(kept)
		if !ok {
			t.Fatalf("referenced entry %v evicted", kept)
		}
		c.Unpin(r)
		c.Unpin(c.Put(Key{Gen: 1, Cluster: int32(i)}, mkRegion(64, 4, float32(i))))
		if !c.Contains(kept) {
			t.Fatalf("entry %v evicted immediately after being referenced", kept)
		}
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	one := mkRegion(64, 4, 0).Bytes()
	c := New(2 * one)
	pinned := c.Put(Key{Gen: 1, Cluster: 0}, mkRegion(64, 4, 0)) // stays pinned
	for i := 1; i < 8; i++ {
		c.Unpin(c.Put(Key{Gen: 1, Cluster: int32(i)}, mkRegion(64, 4, float32(i))))
	}
	if !c.Contains(Key{Gen: 1, Cluster: 0}) {
		t.Fatal("pinned entry evicted")
	}
	// The pinned columns must still be intact.
	if lo0(pinned) != 0 || pageHi(pinned.Pages()[0], 0)[0] != 1 {
		t.Fatal("pinned region corrupted")
	}
	c.Unpin(pinned)
}

func TestOversizeAndAllPinnedRejected(t *testing.T) {
	small := mkRegion(4, 2, 0)
	c := New(small.Bytes() + 1) // holds exactly one small region
	big := mkRegion(1024, 8, 0)
	if got := c.Put(Key{Gen: 1, Cluster: 0}, big); got != big {
		t.Fatal("oversize Put must hand back the caller's region")
	}
	c.Unpin(big) // must be a no-op for a never-admitted region
	if st := c.Stats(); st.Entries != 0 || st.Rejected != 1 {
		t.Fatalf("oversize region admitted: %+v", st)
	}
	// Admit one small region and keep it pinned: the next insert finds
	// nothing evictable and must be rejected, not admitted over budget.
	held := c.Put(Key{Gen: 1, Cluster: 1}, small)
	other := mkRegion(4, 2, 1)
	if got := c.Put(Key{Gen: 1, Cluster: 2}, other); got != other {
		t.Fatal("Put with everything pinned must not evict")
	}
	if !c.Contains(Key{Gen: 1, Cluster: 1}) {
		t.Fatal("pinned entry lost")
	}
	if st := c.Stats(); st.UsedBytes > st.BudgetBytes {
		t.Fatalf("budget exceeded: %+v", st)
	}
	c.Unpin(held)
}

// TestMultiEvictionAdmission pins the sweep-limit regression: admitting a
// region that needs several evictions must not abort mid-sweep because the
// evictions themselves shrank the ring — with everything unpinned and
// referenced, one admission evicts as many entries as the budget demands.
func TestMultiEvictionAdmission(t *testing.T) {
	small := mkRegion(16, 2, 0)
	c := New(10 * small.Bytes())
	for i := 0; i < 10; i++ {
		c.Unpin(c.Put(Key{Gen: 1, Cluster: int32(i)}, mkRegion(16, 2, float32(i))))
	}
	// All ten resident and referenced; a region several times the size
	// needs several evictions behind a full ref-clearing pass.
	big := mkRegion(16*5, 2, 99)
	if got := c.Put(Key{Gen: 1, Cluster: 99}, big); got != big {
		t.Fatal("multi-eviction admission refused")
	}
	c.Unpin(big)
	st := c.Stats()
	if !c.Contains(Key{Gen: 1, Cluster: 99}) || st.Rejected != 0 {
		t.Fatalf("big region not admitted: %+v", st)
	}
	if st.UsedBytes > st.BudgetBytes {
		t.Fatalf("over budget: %+v", st)
	}
}

// TestConcurrentCacheStress hammers Get/Put/Unpin from many goroutines over
// a tiny budget (run under -race in CI): pins must protect every region a
// worker is reading, and the bookkeeping must stay consistent.
func TestConcurrentCacheStress(t *testing.T) {
	one := mkRegion(64, 4, 0).Bytes()
	c := New(3 * one)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				k := Key{Gen: 1, Cluster: int32(rng.Intn(16))}
				r, ok := c.Get(k)
				if !ok {
					r = c.Put(k, mkRegion(64, 4, float32(k.Cluster)))
				}
				// Read through the pin; the fill value must match the
				// key no matter what eviction does around us.
				if lo0(r) != float32(k.Cluster) {
					t.Errorf("worker %d: region %d holds value %g", w, k.Cluster, lo0(r))
					c.Unpin(r)
					return
				}
				c.Unpin(r)
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.UsedBytes > st.BudgetBytes {
		t.Fatalf("budget exceeded at rest: %+v", st)
	}
	if st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("stress exercised nothing: %+v", st)
	}
}

func TestStatsPinnedAndEvictionAccounting(t *testing.T) {
	r0 := mkRegion(16, 2, 0)
	per := r0.Bytes()
	c := New(4 * per) // room for exactly four regions
	regions := make([]*Region, 4)
	for i := range regions {
		regions[i] = c.Put(Key{Gen: 1, Cluster: int32(i)}, mkRegion(16, 2, 0))
	}
	// All four resident and pinned (Put returns pinned).
	s := c.Stats()
	if s.Entries != 4 || s.Pinned != 4 || s.PinnedBytes != 4*per {
		t.Fatalf("after 4 pinned puts: %+v (per=%d)", s, per)
	}
	if s.UsedBytes != 4*per || s.BudgetBytes != 4*per {
		t.Fatalf("byte accounting: %+v", s)
	}
	// Release two pins: pinned figures must drop, residency must not.
	c.Unpin(regions[0])
	c.Unpin(regions[1])
	s = c.Stats()
	if s.Entries != 4 || s.Pinned != 2 || s.PinnedBytes != 2*per {
		t.Fatalf("after 2 unpins: %+v", s)
	}
	// Admitting a fifth region forces evictions of unpinned entries only.
	c.Put(Key{Gen: 1, Cluster: 100}, mkRegion(16, 2, 0))
	s = c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", s)
	}
	if s.Entries+int(s.Evictions) != 5 {
		t.Fatalf("entries (%d) + evictions (%d) must account for all 5 puts", s.Entries, s.Evictions)
	}
	for i := 2; i < 4; i++ { // the still-pinned regions must have survived
		if !c.Contains(Key{Gen: 1, Cluster: int32(i)}) {
			t.Fatalf("pinned region %d was evicted", i)
		}
	}
	if s.UsedBytes != int64(s.Entries)*per {
		t.Fatalf("used bytes %d do not match %d resident entries", s.UsedBytes, s.Entries)
	}
}

// audit checks, under the cache mutex, that none of r's storage is held by
// a resident region or by the free pool, and that the byte accounting
// matches the storage the cache holds plus inFlight — the charge of the
// regions handed out by Alloc and not yet Put.
func (c *Cache) audit(t *testing.T, r *Region, inFlight int64) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	held := make(map[*Page]bool)
	var charged int64
	for _, e := range c.ring {
		if r != nil && e == r {
			t.Errorf("decode target %p is resident", r)
		}
		for _, pg := range e.pages {
			held[pg] = true
		}
		charged += e.bytes
	}
	for _, pg := range c.free {
		if held[pg] {
			t.Errorf("free page %p also belongs to a resident region", pg)
		}
		held[pg] = true
		charged += pageBytes(pg.dims())
	}
	for _, s := range c.spare {
		if r != nil && s == r {
			t.Errorf("decode target %p is a spare header", r)
		}
	}
	charged += int64(len(c.spare)) * regionOverhead
	if r != nil {
		for _, pg := range r.pages {
			if held[pg] {
				t.Errorf("decode target page %p belongs to a resident region or the free pool", pg)
			}
		}
	}
	if inFlight >= 0 && c.used != charged+inFlight {
		t.Errorf("used %d bytes, cache holds %d plus %d in flight", c.used, charged, inFlight)
	}
	if c.used > c.budget {
		t.Errorf("used %d bytes over the %d budget", c.used, c.budget)
	}
}

// TestConcurrentRecyclingStress hammers Get/Alloc/Put/Unpin from many
// goroutines over a budget far below the working set, with regions of
// varying size (run under -race in CI). Storage handed to a decode must
// never belong to a resident or pinned region or to the free pool, a pinned
// region's contents must never change under its reader, and the cache must
// stay within its budget at every step; at rest the accounting must match
// the storage held exactly.
func TestConcurrentRecyclingStress(t *testing.T) {
	const dims, clusters, workers = 3, 24, 8
	size := func(k Key) int { return int(k.Cluster) * 7 % 90 } // 0..89 members, several pages
	c := New(4 * mkRegion(60, dims, 0).Bytes())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 1500; i++ {
				k := Key{Gen: 1, Cluster: int32(rng.Intn(clusters))}
				r, ok := c.Get(k)
				if !ok {
					r = c.Alloc(size(k), dims)
					c.audit(t, r, -1)
					fillRegion(r, dims, float32(k.Cluster))
					r = c.Put(k, r)
				}
				if r.Len() != size(k) {
					t.Errorf("worker %d: region %d has %d members, want %d", w, k.Cluster, r.Len(), size(k))
				}
				for _, pg := range r.Pages() {
					for d := 0; d < dims; d++ {
						for _, v := range pageLo(pg, d) {
							if v != float32(k.Cluster) {
								t.Errorf("worker %d: pinned region %d holds %g", w, k.Cluster, v)
							}
						}
					}
				}
				c.Unpin(r)
				if st := c.Stats(); st.UsedBytes > st.BudgetBytes {
					t.Errorf("worker %d: over budget: %+v", w, st)
				}
				if t.Failed() {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c.audit(t, nil, 0)
	st := c.Stats()
	if st.Hits == 0 || st.Evictions == 0 || st.Pinned != 0 {
		t.Fatalf("stress exercised nothing or leaked pins: %+v", st)
	}
}

// TestFilterMatchesColumnKernels is the differential test of the paged
// verifier: on random regions — coordinates on a coarse grid so boundary
// ties are common, with NaNs and ±Inf mixed in — and random dimension
// subsets, Region.Filter must keep exactly the members geom's
// dimension-at-a-time kernels keep over contiguous columns, and report the
// same number of member checks (the BytesVerified basis).
func TestFilterMatchesColumnKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	nan := float32(math.NaN())
	coord := func() float32 {
		switch rng.Intn(40) {
		case 0:
			return nan
		case 1:
			return float32(math.Inf(1))
		case 2:
			return float32(math.Inf(-1))
		}
		return float32(rng.Intn(9)) / 8
	}
	for trial := 0; trial < 400; trial++ {
		dims := 1 + rng.Intn(6)
		n := rng.Intn(5 * PageSlots)
		r := new(Region)
		r.Reset(n, dims)
		lo := make([][]float32, dims)
		hi := make([][]float32, dims)
		for d := range lo {
			lo[d] = make([]float32, n)
			hi[d] = make([]float32, n)
		}
		for i := 0; i < n; i++ {
			pg := r.Pages()[i/PageSlots]
			pg.ids[i%PageSlots] = uint32(i)
			for d := 0; d < dims; d++ {
				a, b := coord(), coord()
				if a > b {
					a, b = b, a
				}
				lo[d][i], hi[d][i] = a, b
				pageLo(pg, d)[i%PageSlots], pageHi(pg, d)[i%PageSlots] = a, b
			}
		}
		qmin := make([]float32, dims)
		qmax := make([]float32, dims)
		for d := range qmin {
			qmin[d], qmax[d] = coord(), coord()
			if qmin[d] > qmax[d] {
				qmin[d], qmax[d] = qmax[d], qmin[d]
			}
		}
		order := rng.Perm(dims)[:rng.Intn(dims+1)]
		for _, rel := range []geom.Relation{geom.Intersects, geom.ContainedBy, geom.Encloses} {
			want := make([]uint64, geom.BitmapWords(n))
			geom.InitBitmap(want, n)
			wantAlive, wantChecks := n, int64(0)
			for _, d := range order {
				if wantAlive == 0 {
					break
				}
				wantChecks += int64(wantAlive)
				wantAlive = geom.FilterDim(rel, lo[d], hi[d], qmin[d], qmax[d], want)
			}
			bits := make([]uint64, r.BitmapWords())
			alive, checks := r.Filter(rel, order, qmin, qmax, bits)
			got := r.AppendSurvivors(nil, bits)
			wantIDs := geom.AppendSurvivors(nil, idsUpTo(n), want)
			if alive != wantAlive || checks != wantChecks || len(got) != len(wantIDs) {
				t.Fatalf("trial %d %v: alive %d checks %d survivors %d, want %d %d %d",
					trial, rel, alive, checks, len(got), wantAlive, wantChecks, len(wantIDs))
			}
			for i := range got {
				if got[i] != wantIDs[i] {
					t.Fatalf("trial %d %v: survivor %d is %d, want %d", trial, rel, i, got[i], wantIDs[i])
				}
			}
		}
	}
}

// idsUpTo returns the identifiers 0..n-1.
func idsUpTo(n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

// TestMixedDimensionalityRecycling shares one cache between regions of two
// dimensionalities, as engines over different checkpoints may: a free page
// laid out for the other dimensionality must be released rather than
// reused, with the accounting exact after every step.
func TestMixedDimensionalityRecycling(t *testing.T) {
	c := New(3 * mkRegion(40, 5, 0).Bytes())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		k := Key{Gen: 1, Cluster: int32(rng.Intn(12))}
		dims := 2 + 3*int(k.Cluster%2) // even clusters 2-d, odd ones 5-d
		n := 5 + int(k.Cluster)*4
		r, ok := c.Get(k)
		if !ok {
			r = c.Alloc(n, dims)
			inFlight := int64(0)
			if r.owner == c {
				inFlight = r.Bytes()
			}
			c.audit(t, r, inFlight)
			fillRegion(r, dims, float32(k.Cluster))
			r = c.Put(k, r)
		}
		for _, pg := range r.Pages() {
			if pg.dims() != dims {
				t.Fatalf("step %d: region %d has a %d-d page, want %d-d", i, k.Cluster, pg.dims(), dims)
			}
			for _, v := range pageLo(pg, dims-1) {
				if v != float32(k.Cluster) {
					t.Fatalf("step %d: region %d holds %g", i, k.Cluster, v)
				}
			}
		}
		c.Unpin(r)
		c.audit(t, nil, 0)
	}
	if st := c.Stats(); st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("test exercised nothing: %+v", st)
	}
}
