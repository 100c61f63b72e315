package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"accluster/internal/pubsub"
)

// The sdi workload is the paper's §1 selective-dissemination regime: an
// in-process pubsub.Broker with synchronous handlers (QueueDepth 0, one
// index) holding range subscriptions over a 16-attribute schema, each
// constraining a random subset of 4–10 attributes. Point events binding
// every attribute are published through PublishBatch, interleaved on the
// same goroutine with one Unsubscribe and one SubscribeFunc per batch, so
// the population stays constant.
const (
	sdiAttrs = 16
	// sdiDomain is every attribute's upper bound; values and range bounds
	// are integers in [0, sdiDomain], so the broker's normalization v/sdiDomain
	// is exact and the oracle compares the same numbers the index does.
	sdiDomain = 1 << 16
)

// sdiSub is one subscription: a closed range per attribute (the whole
// domain on unconstrained ones) and the attributes it constrains.
type sdiSub struct {
	lo, hi [sdiAttrs]uint32
	attrs  []int
}

// encloses is the oracle's predicate for a point event.
func (s *sdiSub) encloses(v *[sdiAttrs]uint32) bool {
	for d := range v {
		if v[d] < s.lo[d] || v[d] > s.hi[d] {
			return false
		}
	}
	return true
}

// sdiInputs are the generated inputs of the sdi workload.
type sdiInputs struct {
	schema pubsub.Schema
	// subs holds the initial population followed by one new subscription
	// per window batch.
	subs    []sdiSub
	initial []pubsub.Subscription // maps of subs[:objects], built once
	warm    [][]pubsub.Event      // set-up's convergence batches, built once
	window  [][sdiAttrs]uint32    // window events, batch after batch
	victim  []int                 // per window batch: position in the live list to unsubscribe
}

func genSDIInputs(seed int64, s sizes) sdiInputs {
	rng := rand.New(rand.NewSource(seed))
	in := sdiInputs{schema: make(pubsub.Schema, sdiAttrs)}
	for d := range in.schema {
		in.schema[d] = pubsub.Attribute{Name: fmt.Sprintf("a%02d", d), Min: 0, Max: sdiDomain}
	}
	sub := func() sdiSub {
		var sb sdiSub
		for d := range sb.hi {
			sb.hi[d] = sdiDomain
		}
		sb.attrs = rng.Perm(sdiAttrs)[:4+rng.Intn(7)]
		slices.Sort(sb.attrs)
		for _, d := range sb.attrs {
			w := uint32((0.05 + 0.4*rng.Float64()) * sdiDomain)
			lo := uint32(rng.Intn(int(sdiDomain - w + 1)))
			sb.lo[d], sb.hi[d] = lo, lo+w
		}
		return sb
	}
	point := func() (v [sdiAttrs]uint32) {
		for d := range v {
			v[d] = uint32(rng.Intn(sdiDomain + 1))
		}
		return v
	}
	in.subs = make([]sdiSub, 0, s.objects+s.ops)
	for i := 0; i < s.objects; i++ {
		in.subs = append(in.subs, sub())
	}
	in.initial = make([]pubsub.Subscription, s.objects)
	for i := range in.initial {
		in.initial[i] = in.subscription(&in.subs[i], nil)
	}
	in.warm = make([][]pubsub.Event, s.warmup/s.batch)
	for b := range in.warm {
		in.warm[b] = make([]pubsub.Event, s.batch)
		for e := range in.warm[b] {
			v := point()
			in.warm[b][e] = in.event(&v, nil)
		}
	}
	in.window = make([][sdiAttrs]uint32, s.ops*s.batch)
	for i := range in.window {
		in.window[i] = point()
	}
	in.victim = make([]int, s.ops)
	for b := range in.victim {
		in.victim[b] = rng.Intn(s.objects)
		in.subs = append(in.subs, sub())
	}
	return in
}

// subscription renders s as a broker subscription, reusing m when non-nil.
func (in *sdiInputs) subscription(s *sdiSub, m pubsub.Subscription) pubsub.Subscription {
	if m == nil {
		m = make(pubsub.Subscription, len(s.attrs))
	}
	clear(m)
	for _, d := range s.attrs {
		m[in.schema[d].Name] = pubsub.Range{Lo: float64(s.lo[d]), Hi: float64(s.hi[d])}
	}
	return m
}

// event renders v as a point event, reusing m when non-nil.
func (in *sdiInputs) event(v *[sdiAttrs]uint32, m pubsub.Event) pubsub.Event {
	if m == nil {
		m = make(pubsub.Event, sdiAttrs)
	}
	for d, x := range v {
		m[in.schema[d].Name] = pubsub.Value(float64(x))
	}
	return m
}

// liveSub is one subscription registered with the broker.
type liveSub struct {
	id  uint32 // broker identifier
	sub int    // index into sdiInputs.subs
}

// sdiRun is the state of one sdi window.
type sdiRun struct {
	in        *sdiInputs
	b         *pubsub.Broker
	live      []liveSub
	delivered []uint32       // handler calls of the current PublishBatch, in order
	handled   int64          // handler calls of the window
	h         pubsub.Handler // r.handler, bound once
	tr        *tracer        // traced run only
	first     int64          // time of the current batch's first handler call; -1 before it
	// Oracle record: the live set when the window started, the answers of
	// the checked batches and the identifier each window subscription
	// received.
	start   []liveSub
	checked map[int][]uint32
	counts  map[int][]int
	newIDs  []uint32
	failed  int
}

func (r *sdiRun) handler(id uint32, _ pubsub.Event) {
	if r.tr != nil && r.first < 0 {
		r.first = r.tr.now()
	}
	r.delivered = append(r.delivered, id)
}

// setup builds a fresh broker, registers the initial population and
// publishes the convergence batches, returning the time of the two phases.
func (r *sdiRun) setup() (load, converge time.Duration, err error) {
	t0 := time.Now()
	if r.b, err = pubsub.NewBroker(r.in.schema, pubsub.Options{}); err != nil {
		return 0, 0, err
	}
	r.live = r.live[:0]
	for i, m := range r.in.initial {
		id, err := r.b.SubscribeFunc(m, r.h)
		if err != nil {
			return 0, 0, err
		}
		r.live = append(r.live, liveSub{id: id, sub: i})
	}
	load = time.Since(t0)
	t0 = time.Now()
	err = r.converge()
	return load, time.Since(t0), err
}

// converge publishes set-up's convergence batches.
func (r *sdiRun) converge() error {
	for _, evs := range r.in.warm {
		r.delivered = r.delivered[:0]
		_, errs := r.b.PublishBatch(evs)
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("convergence batch: %w", err)
			}
		}
	}
	r.delivered = r.delivered[:0]
	return nil
}

// step is one window iteration: publish batch b, then replace one live
// subscription. Each library call is timed; with traced set, spans are
// recorded around the calls. It returns the PublishBatch latency and the
// two write latencies.
func (r *sdiRun) step(b int, evs []pubsub.Event, subMap pubsub.Subscription, checkEvery int, traced bool) (read, unsub, sub time.Duration) {
	in := r.in
	for e := range evs {
		in.event(&in.window[b*len(evs)+e], evs[e])
	}
	r.delivered = r.delivered[:0]
	r.first = -1

	var root int32
	var t0 time.Time
	if traced {
		root = r.tr.begin("pubsub.publish", int32(b), -1)
	} else {
		t0 = time.Now()
	}
	counts, errs := r.b.PublishBatch(evs)
	if traced {
		r.tr.end(root)
		s := r.tr.spans[root]
		read = time.Duration(s.end - s.start)
		if r.first < 0 {
			r.tr.add("pubsub.match", int32(b), root, s.start, s.end)
		} else {
			r.tr.add("pubsub.match", int32(b), root, s.start, r.first)
			r.tr.add("pubsub.deliver", int32(b), root, r.first, s.end)
		}
	} else {
		read = time.Since(t0)
	}

	total := 0
	for e, err := range errs {
		if err != nil {
			r.failed++
		}
		total += counts[e]
	}
	if total != len(r.delivered) {
		r.failed++ // a match without its delivery, or the reverse
	}
	r.handled += int64(len(r.delivered))
	if b%checkEvery == 0 {
		r.checked[b] = slices.Clone(r.delivered)
		r.counts[b] = counts
	}

	pos := in.victim[b] % len(r.live)
	victim := r.live[pos]
	r.live[pos] = r.live[len(r.live)-1]
	r.live = r.live[:len(r.live)-1]
	var ok bool
	unsub = r.timed(traced, "pubsub.unsubscribe", int32(b), func() { ok = r.b.Unsubscribe(victim.id) })
	if !ok {
		r.failed++
	}

	si := len(in.initial) + b
	in.subscription(&in.subs[si], subMap)
	var id uint32
	var err error
	sub = r.timed(traced, "pubsub.subscribe", int32(b), func() { id, err = r.b.SubscribeFunc(subMap, r.h) })
	if err != nil {
		r.failed++
		return read, unsub, sub
	}
	r.live = append(r.live, liveSub{id: id, sub: si})
	r.newIDs[b] = id
	return read, unsub, sub
}

// timed runs call, recording a span of the given name when traced.
func (r *sdiRun) timed(traced bool, name string, req int32, call func()) time.Duration {
	if traced {
		s := r.tr.begin(name, req, -1)
		call()
		r.tr.end(s)
		return time.Duration(r.tr.spans[s].end - r.tr.spans[s].start)
	}
	t0 := time.Now()
	call()
	return time.Since(t0)
}

// window runs every window step; traced(b) selects the steps with spans.
func (r *sdiRun) window(s sizes, traced func(b int) bool) (reads, traces, plain, writes latencies) {
	evs := make([]pubsub.Event, s.batch)
	for e := range evs {
		evs[e] = make(pubsub.Event, sdiAttrs)
	}
	subMap := make(pubsub.Subscription, sdiAttrs)
	r.start = slices.Clone(r.live)
	r.checked = make(map[int][]uint32)
	r.counts = make(map[int][]int)
	r.newIDs = make([]uint32, s.ops)
	reads = make(latencies, 0, s.ops)
	writes = make(latencies, 0, 2*s.ops)
	for b := 0; b < s.ops; b++ {
		t := traced(b)
		read, unsub, sub := r.step(b, evs, subMap, s.checkEvery, t)
		reads = append(reads, read)
		writes = append(writes, unsub, sub)
		if t {
			traces = append(traces, read)
		} else {
			plain = append(plain, read)
		}
	}
	return reads, traces, plain, writes
}

// check replays the window's subscription churn on the benchmark's own copy
// of the live set and compares every checked batch's deliveries, event by
// event, with a brute-force scan. It returns the number of wrong answer
// sets.
func (r *sdiRun) check(s sizes) int {
	in := r.in
	live := slices.Clone(r.start)
	bad := 0
	var want []uint32
	for b := 0; b < s.ops; b++ {
		if got, ok := r.checked[b]; ok {
			off := 0
			for e, n := range r.counts[b] {
				v := &in.window[b*s.batch+e]
				want = want[:0]
				for _, l := range live {
					if in.subs[l.sub].encloses(v) {
						want = append(want, l.id)
					}
				}
				slices.Sort(want)
				seg := got[min(off, len(got)):min(off+n, len(got))]
				off += n
				slices.Sort(seg)
				if !slices.Equal(seg, want) {
					bad++
				}
			}
		}
		pos := in.victim[b] % len(live)
		live[pos] = live[len(live)-1]
		live = live[:len(live)-1]
		live = append(live, liveSub{id: r.newIDs[b], sub: len(in.initial) + b})
	}
	return bad
}

func runSDI(p params) (*result, error) {
	in := genSDIInputs(p.seed, p.size)
	r := &sdiRun{in: &in}
	r.h = r.handler
	if p.trace {
		return traceSDI(p, r)
	}
	setups := make([]time.Duration, p.size.setups)
	for k := range setups {
		r.b = nil // the previous repetition's broker is garbage before the next builds
		load, converge, err := r.setup()
		if err != nil {
			return nil, err
		}
		setups[k] = load + converge
	}
	clusters := r.b.Stats().Clusters
	runtime.GC()

	reads, _, _, writes := r.window(p.size, func(int) bool { return false })

	events := p.size.ops * p.size.batch
	res := &result{attempted: events + len(writes)}
	res.failed = r.failed + r.check(p.size)
	r.checked, r.counts = nil, nil
	busy := make(latencies, len(reads))
	for b := range busy {
		busy[b] = reads[b] + writes[2*b] + writes[2*b+1]
	}
	res.addEndToEnd(setups, reads, busy, p.size.batch)
	res.set("write_p50_us", "us", writes.quantile(0.50))
	res.set("write_p99_us", "us", writes.quantile(0.99))
	st := r.b.Stats()
	res.note("%d PublishBatch calls of %d events, %d write calls; %.2f deliveries per event; clusters %d after set-up, %d after the window",
		p.size.ops, p.size.batch, len(writes), float64(r.handled)/float64(events), clusters, st.Clusters)
	return res, nil
}

// traceSDI is the traced run of the sdi workload; the window alternates
// traced and untraced steps.
func traceSDI(p params, r *sdiRun) (*result, error) {
	res := &result{}
	load, converge, err := r.setup()
	if err != nil {
		return nil, err
	}
	res.set("setup.load_s", "s", load.Seconds())
	res.set("setup.converge_s", "s", converge.Seconds())
	b := r.b

	st0 := b.Stats()
	res.setExact("pubsub.clusters", "count", float64(st0.Clusters))
	r.tr = newTracer(6 * p.size.ops)
	runtime.GC()
	g0 := readGoCounters()
	_, traces, plain, writes := r.window(p.size, func(b int) bool { return b%2 == 0 })
	events := p.size.ops * p.size.batch
	res.addGoMetrics(g0, p.size.ops)
	res.attempted = events + len(writes)

	st := b.Stats()
	sum := r.tr.summary()
	tracedBatches := float64(len(traces))
	res.set("pubsub.match_us", "us", float64(sum["pubsub.match"].total)/tracedBatches/1e3)
	res.set("pubsub.deliver_us", "us", float64(sum["pubsub.deliver"].total)/tracedBatches/1e3)
	res.set("pubsub.subscribe_us", "us", sum["pubsub.subscribe"].meanUS())
	res.set("pubsub.unsubscribe_us", "us", sum["pubsub.unsubscribe"].meanUS())
	res.setExact("pubsub.matches_per_event", "count", float64(st.Matches-st0.Matches)/float64(events))
	res.setExact("pubsub.delivered_per_event", "count", float64(r.handled)/float64(events))
	res.setExact("pubsub.dropped", "count", float64(st.Dropped-st0.Dropped))
	res.set("trace.overhead_pct", "%", overheadPct(traces, plain))
	res.note("per-layer pubsub times are per PublishBatch call of %d events", p.size.batch)
	res.failed = r.failed + r.check(p.size)
	res.spans = r.tr
	return res, nil
}
