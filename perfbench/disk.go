package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"accluster"
	"accluster/internal/diskengine"
	"accluster/internal/geom"
	"accluster/internal/store"
)

// The disk workload saves a converged range index with SaveFile and queries
// it through OpenDisk with a region cache of 1/cacheFrac of the objects'
// bytes, with the range workload's query distribution. The file is read
// through the OS page cache, so its latencies are this sandbox's, not a
// storage device's.

// diskCacheBytes is the region-cache budget: well below the region bytes,
// so the working set exceeds the program's own cache.
func diskCacheBytes(s sizes) int64 {
	return int64(s.objects) * int64(geom.ObjectBytes(rangeDims)) / int64(s.cacheFrac)
}

func runDisk(p params) (*result, error) {
	in := genRangeInputs(p.seed, p.size)
	path := filepath.Join(p.workDir, fmt.Sprintf("disk-seed%d-pid%d.acdb", p.seed, os.Getpid()))
	defer os.Remove(path)
	if p.trace {
		return traceDisk(p, in, path)
	}
	budget := diskCacheBytes(p.size)
	setups := make([]time.Duration, p.size.setups)
	var d *accluster.Disk
	for k := range setups {
		if d != nil {
			d.Close()
			d = nil
		}
		t0 := time.Now()
		a, err := buildAdaptive(in)
		if err != nil {
			return nil, err
		}
		if err := a.SaveFile(path); err != nil {
			return nil, err
		}
		if d, err = accluster.OpenDisk(path, accluster.WithDiskCache(budget)); err != nil {
			return nil, err
		}
		setups[k] = time.Since(t0)
	}
	defer d.Close()
	runtime.GC()

	w := runWindow(func(dst []uint32, q geom.Rect) ([]uint32, error) {
		return d.SearchIDsAppend(dst, q, geom.Intersects)
	}, in.window, p.size.checkEvery)

	res := &result{attempted: len(in.window)}
	res.failed = w.errs + checkRange(in, w.samples)
	res.addEndToEnd(setups, w.lat, w.lat, 1)
	runtime.KeepAlive(in)
	cs := d.CacheStats()
	res.note("clusters %d; region cache %d hits / %d misses, %d evictions, %.2f of %.2f MB used; %d answers checked",
		d.Clusters(), cs.Hits, cs.Misses, cs.Evictions, float64(cs.UsedBytes)/(1<<20), float64(cs.BudgetBytes)/(1<<20), len(w.samples))
	return res, nil
}

// timedDevice is the traced run's store.Device: it counts every read and,
// while a search span is open (cur ≥ 0), records a store.read span under it.
type timedDevice struct {
	store.Device
	tr       *tracer
	cur, req int32
	reads    int64
	bytes    int64
}

func (t *timedDevice) ReadAt(p []byte, off int64) (int, error) {
	t.reads++
	t.bytes += int64(len(p))
	if t.cur < 0 {
		return t.Device.ReadAt(p, off)
	}
	s := t.tr.begin("store.read", t.req, t.cur)
	n, err := t.Device.ReadAt(p, off)
	t.tr.end(s)
	return n, err
}

// traceDisk is the traced run of the disk workload: the engine is opened
// with diskengine.OpenConfig over timedDevice, with the cache and readahead
// configuration OpenDisk builds for WithDiskCache(budget).
func traceDisk(p params, in rangeInputs, path string) (*result, error) {
	res := &result{attempted: len(in.window)}
	f, err := setupTraced(res, in)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := store.SaveFile(f.ix, path); err != nil {
		return nil, err
	}
	res.set("setup.save_s", "s", time.Since(t0).Seconds())
	f = nil

	t0 = time.Now()
	fd, err := store.OpenFileDevice(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	tr := newTracer(4 * len(in.window))
	dev := &timedDevice{Device: fd, tr: tr, cur: -1}
	eng, err := diskengine.OpenConfig(dev, diskengine.Config{CacheBytes: diskCacheBytes(p.size)})
	if err != nil {
		return nil, err
	}
	res.set("setup.open_s", "s", time.Since(t0).Seconds())

	m0, c0 := eng.Meter(), eng.CacheStats()
	reads0, bytes0 := dev.reads, dev.bytes
	runtime.GC()
	g0 := readGoCounters()

	traced := make(latencies, 0, len(in.window)/2+1)
	plain := make(latencies, 0, len(in.window)/2+1)
	var samples []answerSample
	var buf []uint32
	for i, q := range in.window {
		var ids []uint32
		if i%2 == 0 {
			root := tr.begin("diskengine.search", int32(i), -1)
			dev.cur, dev.req = root, int32(i)
			ids, err = eng.SearchIDsAppend(buf[:0], q, geom.Intersects)
			dev.cur = -1
			tr.end(root)
			traced = append(traced, time.Duration(tr.spans[root].end-tr.spans[root].start))
		} else {
			t0 := time.Now()
			ids, err = eng.SearchIDsAppend(buf[:0], q, geom.Intersects)
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
	m := eng.Meter().Sub(m0)
	c := eng.CacheStats()
	sum := tr.summary()
	res.set("store.read_us", "us", float64(sum["store.read"].total)/float64(len(traced))/1e3)
	res.setExact("store.reads", "count", float64(dev.reads-reads0)/n)
	res.setExact("store.read_bytes", "count", float64(dev.bytes-bytes0)/n)
	res.set("diskengine.self_us", "us", sum["diskengine.search"].selfUS())
	res.setExact("diskengine.explorations", "count", float64(m.Explorations)/n)
	res.setExact("diskengine.seeks", "count", float64(m.Seeks)/n)
	res.setExact("diskengine.objects_verified", "count", float64(m.ObjectsVerified)/n)
	hits, misses := c.Hits-c0.Hits, c.Misses-c0.Misses
	res.setExact("blockcache.hit_ratio", "ratio", float64(hits)/float64(max(hits+misses, 1)))
	res.setExact("blockcache.hits", "count", float64(hits))     // report only
	res.setExact("blockcache.misses", "count", float64(misses)) // report only
	res.setExact("blockcache.evictions", "count", float64(c.Evictions-c0.Evictions))
	res.setExact("blockcache.used_mb", "MB", float64(c.UsedBytes)/(1<<20))
	res.set("trace.overhead_pct", "%", overheadPct(traced, plain))
	res.note("clusters %d; region cache budget %.2f MB", eng.Clusters(), float64(c.BudgetBytes)/(1<<20))
	res.failed += checkRange(in, samples)
	res.spans = tr
	return res, nil
}
