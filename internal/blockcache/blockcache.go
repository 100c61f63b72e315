// Package blockcache is a fixed-memory-budget, concurrency-safe cache of
// decoded cluster regions for the disk storage scenario (§5.ii). A disk
// deployment keeps signatures and the directory in memory while cluster
// members live on the device; every explored cluster therefore costs a seek,
// a sequential transfer and a decode. Production query streams re-explore
// the same hot clusters over and over — the adaptive clustering exists
// precisely because the query distribution is skewed — so caching *decoded*
// regions converts repeat explorations into pure in-memory column scans:
// no seek, no transfer, no decode, no allocation.
//
// Entries are keyed by (checkpoint generation, cluster position). The
// generation is drawn from a process-wide counter at engine open time, so
// engines sharing one cache never mix entries and re-opening a checkpoint
// (after a new store.Save) implicitly invalidates everything the previous
// engine cached: stale entries simply stop being requested and age out.
//
// Eviction is CLOCK (second-chance): each hit sets the entry's reference
// bit, the hand sweeps the ring clearing bits and evicts the first
// unreferenced entry. Entries are pinned while a query verifies against
// their columns — concurrent searches share one decoded region without
// copying — and pinned entries are never evicted.
//
// Decoded storage is paged and recycled. A region is a list of fixed-size
// pages of PageSlots members each, every column contiguous within its page,
// so a page freed by any region fits any other region of the same
// dimensionality. Storage released by an eviction or by a losing Put goes
// to the cache's free pool, and Alloc draws the decode target of the next
// miss from that pool — the miss path allocates nothing once the pool has
// grown to the budget. The budget charges every byte the cache holds:
// resident regions, regions handed out by Alloc and not yet Put, and the
// free pool. When the budget cannot make room (everything pinned, or the
// region alone exceeds it) the region gets private storage and is simply
// not admitted: it stays an uncached buffer of the requesting query.
package blockcache

import (
	mbits "math/bits"
	"sync"
	"sync/atomic"

	"accluster/internal/geom"
)

// Key identifies one decoded cluster region.
type Key struct {
	// Gen is the checkpoint generation (NextGen at engine open).
	Gen uint64
	// Cluster is the cluster's position in the checkpoint directory.
	Cluster int32
}

// generation is the process-wide checkpoint generation counter.
var generation atomic.Uint64

// NextGen returns a fresh checkpoint generation. Every engine opening draws
// one, so cache keys from different openings never collide.
func NextGen() uint64 { return generation.Add(1) }

// PageSlots is the member capacity of one page. Page p of a region holds
// members [p·PageSlots, (p+1)·PageSlots) and owns word p of the
// verification bitmap (only its low PageSlots bits are ever set). The size
// trades the unused tail slots of each region's last page — budget bytes
// that cache no member — against the verifier's per-page work: on the
// benchmark's disk workload, 64-slot pages cost the cache about 7% of its
// hit ratio and 16-slot pages about 3%.
const PageSlots = 16

// Page is one fixed-size block of decoded region storage: up to PageSlots
// members, with the ids and each dimension's lo and hi column contiguous
// within the page.
type Page struct {
	ids  [PageSlots]uint32
	cols []float32 // 2·dims columns of PageSlots floats: lo of dimension d at column 2d, hi at 2d+1
	n    int       // members held
}

// pageOverhead approximates a page's footprint beyond its member slots
// (column slice header, count, the region's page pointer).
const pageOverhead = 40

// pageBytes returns the budget charge of one page of the given
// dimensionality.
func pageBytes(dims int) int64 {
	return int64(PageSlots*4*(2*dims+1) + pageOverhead)
}

// pagesFor returns the number of pages that hold n members.
func pagesFor(n int) int { return (n + PageSlots - 1) / PageSlots }

func newPage(dims int) *Page { return &Page{cols: make([]float32, 2*dims*PageSlots)} }

// dims returns the dimensionality the page's columns are laid out for.
func (p *Page) dims() int { return len(p.cols) / (2 * PageSlots) }

// IDs returns the members' identifiers.
func (p *Page) IDs() []uint32 { return p.ids[:p.n] }

// Columns returns the page's decode target: the id slots of its members and
// the column block, in which dimension d's interval starts begin at
// 2d·PageSlots and its interval ends at (2d+1)·PageSlots.
func (p *Page) Columns() ([]uint32, []float32) { return p.ids[:p.n], p.cols }

// Region is one decoded cluster region in the core's structure-of-arrays
// column layout, split into pages: member i lives in page i/PageSlots at
// slot i%PageSlots. While a Region is pinned its columns are immutable and
// safe to read from any number of goroutines.
type Region struct {
	pages []*Page
	n     int
	bytes int64

	// Cache bookkeeping, guarded by the owning Cache's mutex. owner is
	// the cache whose budget charges the region's storage (nil for
	// private storage).
	owner    *Cache
	key      Key
	pins     int32
	ref      bool
	resident bool
}

// regionOverhead approximates the fixed per-entry footprint (struct, slice
// headers, map entry, ring slot) charged against the budget so that many
// tiny regions cannot blow past it.
const regionOverhead = 192

// Reset lays a region with private storage out for n members of the given
// dimensionality, reusing its pages where their layout fits. The contents
// are undefined until the caller fills the pages. Regions drawn from a
// cache with Alloc are already laid out and must not be Reset.
func (r *Region) Reset(n, dims int) {
	k := pagesFor(n)
	all := r.pages[:cap(r.pages)]
	for len(all) < k {
		all = append(all, nil)
	}
	for i, pg := range all[:k] {
		if pg == nil || pg.dims() != dims {
			all[i] = newPage(dims)
		}
	}
	r.pages = all[:k]
	r.layout(n, dims)
}

// layout sets the page member counts for n members and the budget charge.
func (r *Region) layout(n, dims int) {
	r.n = n
	for p, pg := range r.pages {
		pg.n = min(PageSlots, n-p*PageSlots)
	}
	r.bytes = int64(len(r.pages))*pageBytes(dims) + regionOverhead
}

// Len returns the number of members.
func (r *Region) Len() int { return r.n }

// Pages returns the region's pages in member order.
func (r *Region) Pages() []*Page { return r.pages }

// Bytes returns the budget charge of the region.
func (r *Region) Bytes() int64 { return r.bytes }

// BitmapWords returns the number of verification bitmap words the region
// needs: one per page.
func (r *Region) BitmapWords() int { return len(r.pages) }

// Filter verifies the members against a query page by page: each page's
// candidate word runs through the dimensions in dims order — the caller has
// dropped those the cluster signature already proves — until it empties,
// with qmin[d], qmax[d] the query interval in dimension d. It leaves page
// p's survivors in bits[p] (bits must hold BitmapWords words) and returns
// the survivor count and the member checks performed: the candidates alive
// before each dimension, summed, which is the same figure a
// dimension-at-a-time pass over the whole region accumulates.
//
// The per-dimension predicates are geom's: Intersects keeps lo ≤ qhi and
// hi ≥ qlo, Encloses lo ≤ qlo and hi ≥ qhi, ContainedBy lo ≥ qlo and
// hi ≤ qhi, each comparison positive so NaN coordinates never match. A
// page with at most sparseLanes candidates left tests only those; denser
// pages take a branch-free pass over all PageSlots lanes (lanes past the
// page's members hold stale values but no candidate bit).
func (r *Region) Filter(rel geom.Relation, dims []int, qmin, qmax []float32, bits []uint64) (alive int, checks int64) {
	bits = bits[:len(r.pages)]
	if !rel.Valid() {
		clear(bits)
		return 0, 0
	}
	qmax = qmax[:len(qmin)]
	inside := rel == geom.ContainedBy
	for p, pg := range r.pages {
		w := uint64(1)<<uint(pg.n) - 1
		cols := pg.cols
		for _, d := range dims {
			n := mbits.OnesCount64(w)
			checks += int64(n)
			// Intersects and Encloses keep lo ≤ x and hi ≥ y,
			// ContainedBy keeps lo ≥ x and hi ≤ y.
			x, y := qmin[d], qmax[d]
			if rel == geom.Intersects {
				x, y = y, x
			}
			lo := cols[2*d*PageSlots : (2*d+1)*PageSlots]
			hi := cols[(2*d+1)*PageSlots : (2*d+2)*PageSlots]
			var keep uint64
			switch {
			case n <= sparseLanes && inside:
				for rest := w; rest != 0; rest &= rest - 1 {
					j := mbits.TrailingZeros64(rest) & (PageSlots - 1)
					keep |= (b2u(lo[j] >= x) & b2u(hi[j] <= y)) << uint(j)
				}
			case n <= sparseLanes:
				for rest := w; rest != 0; rest &= rest - 1 {
					j := mbits.TrailingZeros64(rest) & (PageSlots - 1)
					keep |= (b2u(lo[j] <= x) & b2u(hi[j] >= y)) << uint(j)
				}
			case inside:
				for j := 0; j < PageSlots; j++ {
					keep |= (b2u(lo[j] >= x) & b2u(hi[j] <= y)) << uint(j)
				}
			default:
				for j := 0; j < PageSlots; j++ {
					keep |= (b2u(lo[j] <= x) & b2u(hi[j] >= y)) << uint(j)
				}
			}
			if w &= keep; w == 0 {
				break
			}
		}
		bits[p] = w
		alive += mbits.OnesCount64(w)
	}
	return alive, checks
}

// sparseLanes is the candidate count up to which Filter tests a page's
// candidates one by one instead of in a full-page pass.
const sparseLanes = 4

// b2u converts a comparison outcome into a 0/1 lane bit; the compiler turns
// it into a flag materialization (SETcc), keeping the lane loops
// branch-free.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// AppendSurvivors appends the ids of the members set in bits to dst.
func (r *Region) AppendSurvivors(dst []uint32, bits []uint64) []uint32 {
	for p, pg := range r.pages {
		if bits[p] != 0 {
			dst = geom.AppendSurvivors(dst, pg.IDs(), bits[p:p+1])
		}
	}
	return dst
}

// Stats describes the cache's observed behaviour.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Evictions counts entries removed by the CLOCK sweep.
	Evictions int64
	// Rejected counts regions that could not be admitted (everything
	// evictable was pinned, or the region alone exceeds the budget).
	Rejected int64
	// Entries is the current number of resident regions.
	Entries int
	// Pinned is the number of resident regions currently pinned by
	// in-flight queries; PinnedBytes is their budget charge. Pinned
	// entries are never evicted, so PinnedBytes bounds how much of
	// UsedBytes a sweep could not reclaim right now.
	Pinned      int
	PinnedBytes int64
	// UsedBytes and BudgetBytes describe the memory budget. UsedBytes
	// covers every byte the cache holds: resident regions, regions being
	// decoded and the free pool of recycled storage.
	UsedBytes, BudgetBytes int64
}

// Cache is the fixed-budget region cache. All methods are safe for
// concurrent use; the mutex guards only bookkeeping (never I/O or
// decoding, which callers do outside).
type Cache struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	entries   map[Key]*Region
	ring      []*Region
	hand      int
	free      []*Page   // recycled pages, charged to used
	spare     []*Region // recycled region headers, charged regionOverhead each
	hits      int64
	misses    int64
	evictions int64
	rejected  int64
}

// New builds a cache with the given memory budget in bytes (the decoded
// footprint of the regions and recycled storage it holds, including fixed
// per-page and per-entry overheads).
func New(budgetBytes int64) *Cache {
	return &Cache{budget: budgetBytes, entries: make(map[Key]*Region)}
}

// Get returns the resident region under k pinned, or nil. The caller must
// Unpin it after verifying.
func (c *Cache) Get(k Key) (*Region, bool) {
	c.mu.Lock()
	r := c.entries[k]
	if r == nil {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	r.pins++
	r.ref = true
	c.hits++
	c.mu.Unlock()
	return r, true
}

// Alloc returns a region laid out for n members of the given
// dimensionality, its storage drawn from the free pool — grown while the
// budget allows, refilled by CLOCK eviction once it is spent. The caller
// owns the region exclusively, fills its pages and hands it to Put; a
// caller that may fail to fill it validates its input first, so every
// allocated region reaches Put. When the budget cannot hold the region
// (it alone exceeds the budget, or every resident region is pinned) Alloc
// returns private storage, which Put admits only if room has appeared by
// then.
func (c *Cache) Alloc(n, dims int) *Region {
	k := pagesFor(n)
	c.mu.Lock()
	if int64(k)*pageBytes(dims)+regionOverhead <= c.budget && c.reserve(k, dims) {
		r := c.spare[len(c.spare)-1]
		c.spare = c.spare[:len(c.spare)-1]
		r.pages = append(r.pages[:0], c.free[len(c.free)-k:]...)
		clear(c.free[len(c.free)-k:])
		c.free = c.free[:len(c.free)-k]
		r.owner = c
		c.mu.Unlock()
		r.layout(n, dims)
		return r
	}
	c.mu.Unlock()
	r := new(Region)
	r.Reset(n, dims)
	return r
}

// reserve makes k free pages of the given dimensionality and one spare
// header available without exceeding the budget: it drops free pages laid
// out for another dimensionality, grows the pool while the budget allows,
// and evicts once it does not. It reports whether the storage is
// available. Once the pool has grown to the budget, pages and headers only
// circulate between resident regions and the pool, and nothing is
// allocated. The eviction examination limit is fixed at entry —
// two passes over the ring as it was, enough to clear every reference bit
// once and come around again — so a multi-eviction reservation is not cut
// short just because earlier evictions shrank the ring; once the limit is
// reached everything left is pinned and the reservation fails.
func (c *Cache) reserve(k, dims int) bool {
	c.dropForeign(dims)
	pb := pageBytes(dims)
	limit, examined := 2*len(c.ring), 0
	for {
		needPages := max(k-len(c.free), 0)
		needHeader := max(1-len(c.spare), 0)
		want := int64(needPages)*pb + int64(needHeader)*regionOverhead
		if want == 0 {
			return true
		}
		if c.used+want <= c.budget {
			for ; needPages > 0; needPages-- {
				c.free = append(c.free, newPage(dims))
			}
			if needHeader > 0 {
				c.spare = append(c.spare, new(Region))
			}
			c.used += want
			return true
		}
		if needHeader > 0 && len(c.free) > k {
			// A surplus free page buys the header: headers only ever
			// grow in number, up to the most regions the budget has
			// held at once, so this conversion dies out.
			c.dropPage()
			continue
		}
		if !c.evictOne(&examined, limit) {
			return false
		}
		c.dropForeign(dims)
	}
}

// dropForeign releases the free pages laid out for a dimensionality other
// than dims (engines of different dimensionality may share one cache).
func (c *Cache) dropForeign(dims int) {
	kept := c.free[:0]
	for _, pg := range c.free {
		if pg.dims() == dims {
			kept = append(kept, pg)
		} else {
			c.used -= pageBytes(pg.dims())
		}
	}
	clear(c.free[len(kept):])
	c.free = kept
}

// Put admits the freshly decoded r under k and returns the canonical region
// for the key, pinned: r itself when admitted, the already-resident region
// when another query inserted the key first (r's storage is then
// recycled), or r unmanaged when the cache cannot make room — the caller
// uses it exactly the same way and the later Unpin is a no-op. The caller
// must not touch r again after Put except through the returned region.
func (c *Cache) Put(k Key, r *Region) *Region {
	c.mu.Lock()
	defer c.mu.Unlock()
	if exist := c.entries[k]; exist != nil {
		exist.pins++
		exist.ref = true
		c.recycle(r)
		return exist
	}
	if r.owner != c {
		// Private storage: adopt it if the budget can make room.
		if r.bytes > c.budget || !c.makeRoom(r.bytes) {
			c.rejected++
			return r
		}
		clear(r.pages[len(r.pages):cap(r.pages)])
		c.used += r.bytes
		r.owner = c
	}
	r.key = k
	r.resident = true
	r.pins = 1
	r.ref = true
	c.entries[k] = r
	c.ring = append(c.ring, r)
	return r
}

// makeRoom frees need bytes of budget for adopting private storage:
// released free storage first, then CLOCK evictions (whose storage is
// released in turn). It reports whether the space was freed; the
// examination limit is the one reserve uses.
func (c *Cache) makeRoom(need int64) bool {
	limit, examined := 2*len(c.ring), 0
	for c.used+need > c.budget {
		switch {
		case len(c.free) > 0:
			c.dropPage()
		case len(c.spare) > 0:
			c.dropSpare()
		default:
			if !c.evictOne(&examined, limit) {
				return false
			}
		}
	}
	return true
}

// evictOne advances the CLOCK hand to the next unpinned, unreferenced
// entry — clearing reference bits on the way — and evicts it into the free
// pool. It reports false once the examination limit is reached.
func (c *Cache) evictOne(examined *int, limit int) bool {
	for len(c.ring) > 0 && *examined < limit {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		e := c.ring[c.hand]
		*examined++
		if e.pins > 0 {
			c.hand++
			continue
		}
		if e.ref {
			e.ref = false
			c.hand++
			continue
		}
		// Evict: swap-remove from the ring (the hand stays, now pointing
		// at the swapped-in tail entry) and drop the map entry.
		last := len(c.ring) - 1
		c.ring[c.hand] = c.ring[last]
		c.ring[last] = nil
		c.ring = c.ring[:last]
		delete(c.entries, e.key)
		e.resident = false
		c.evictions++
		c.recycle(e)
		return true
	}
	return false
}

// recycle moves the storage of a region the cache owns and nobody else
// references into the free pool; the charge carries over unchanged.
// Private storage is left to the garbage collector.
func (c *Cache) recycle(r *Region) {
	if r.owner != c {
		return
	}
	c.free = append(c.free, r.pages...)
	clear(r.pages)
	r.pages = r.pages[:0]
	r.n, r.bytes, r.owner = 0, 0, nil
	r.pins, r.ref, r.resident = 0, false, false
	c.spare = append(c.spare, r)
}

// dropPage releases one free page from the pool and the budget.
func (c *Cache) dropPage() {
	last := len(c.free) - 1
	c.used -= pageBytes(c.free[last].dims())
	c.free[last] = nil
	c.free = c.free[:last]
}

// dropSpare releases one spare region header from the pool and the budget.
func (c *Cache) dropSpare() {
	last := len(c.spare) - 1
	c.used -= regionOverhead
	c.spare[last] = nil
	c.spare = c.spare[:last]
}

// Unpin releases a region obtained from Get or Put. Unpinning a region the
// cache never admitted is a no-op.
func (c *Cache) Unpin(r *Region) {
	c.mu.Lock()
	if r.resident && r.pins > 0 {
		r.pins--
	}
	c.mu.Unlock()
}

// Stats returns a consistent snapshot of the cache counters. The pinned
// figures are computed by walking the ring under the mutex — bounded by the
// entry count and intended for periodic sampling, not hot paths.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Rejected:    c.rejected,
		Entries:     len(c.ring),
		UsedBytes:   c.used,
		BudgetBytes: c.budget,
	}
	for _, e := range c.ring {
		if e.pins > 0 {
			s.Pinned++
			s.PinnedBytes += e.bytes
		}
	}
	return s
}

// Contains reports whether k is resident (without pinning or touching the
// reference bit); intended for tests.
func (c *Cache) Contains(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[k] != nil
}
