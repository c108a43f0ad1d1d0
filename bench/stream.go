package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dsms"
	"repro/internal/dsmsd"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

// closedCredits bounds the deliveries (Q1 tuples plus Q2 windows) the
// closed loop lets be outstanding: the generator takes one credit per
// delivery the reference expects of a batch before it publishes the
// batch, and a sink returns one per delivery. A subscription's buffer
// (1024 tuples) drops, not blocks, when it is full, and on one P a chain
// of wake-ups between generator, shard worker and one query can keep the
// other query's consumer off the processor for a whole time slice; with
// credits the generator blocks first, so nothing is ever dropped.
const closedCredits = 512

// deliveryTimeout is how long a slice waits, after Flush, for the
// deliveries the reference expects before it reports them lost (they
// follow the Flush within ms).
const deliveryTimeout = 3 * time.Second

// streamSpec is one stream workload: how to build the system, how much
// to warm it up and the fixed open-loop rate.
type streamSpec struct {
	warmTuples int64
	rate       float64 // tuples/s offered by the open loop
	// partitioned is set when the stream is spread over shards. Q1's
	// deliveries then interleave, so their multiset is checked, not their
	// sequence; and Q2's average is the sum of per-partition sums, whose
	// last bits differ from the reference's sum in input order, so it is
	// compared within avgTolerance.
	partitioned bool
	build       func(q1, q2 func(stream.Tuple)) (*streamSystem, error)
}

var streamSpecs = map[string]streamSpec{
	"embedded_stream":   {warmTuples: 2_000_000, rate: 1_000_000, build: buildEmbedded},
	"partitioned_merge": {warmTuples: 300_000, rate: 250_000, partitioned: true, build: buildPartitioned},
	"tcp_stream":        {warmTuples: 12_800, rate: 10_000, build: buildTCP},
	"remote_replicated": {warmTuples: 10_000, rate: 8_000, build: buildRemoteReplicated},
}

// streamSystem is a built system seen from the load generator.
type streamSystem struct {
	publish func(ts []stream.Tuple) (int, error)
	fw      *core.Framework
	stream  string
	// subs are the subscriptions whose drop counters the benchmark can
	// read (tcp_stream's live inside the server).
	subs    []*runtime.Subscription
	closers []func()
}

func (s *streamSystem) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

func (s *streamSystem) dropped() (n uint64) {
	for _, sub := range s.subs {
		n += sub.Dropped()
	}
	return n
}

// queryPolicies are the two grants every stream workload takes: Q1
// filter+map for alice, Q2 a tumbling tuple window for bob.
func queryPolicies(streamName string) (q1, q2 *xacml.Policy) {
	q1 = xacmlplus.StreamPolicy("bench:q1", "alice", streamName, "read",
		xacmlplus.FilterObligation(fmt.Sprintf("rainrate > %d", rainThreshold)),
		xacmlplus.MapObligation("samplingtime", "rainrate"))
	q2 = xacmlplus.StreamPolicy("bench:q2", "bob", streamName, "read",
		xacmlplus.MustWindowObligation(dsms.WindowTuple, batchSize, batchSize,
			"samplingtime:max", "temperature:avg", "rainrate:max"))
	return q1, q2
}

// grant is one query to take through the policy plane: the policy that
// permits it, who asks, and where its deliveries go.
type grant struct {
	policy  *xacml.Policy
	subject string
	sink    func(stream.Tuple)
}

func grants(streamName string, q1, q2 func(stream.Tuple)) []grant {
	p1, p2 := queryPolicies(streamName)
	return []grant{{p1, "alice", q1}, {p2, "bob", q2}}
}

// grantEmbedded takes both grants through the policy plane of fw and
// attaches the sinks to the granted handles.
func grantEmbedded(sys *streamSystem, q1, q2 func(stream.Tuple)) error {
	for _, g := range grants(sys.stream, q1, q2) {
		if err := sys.fw.AddPolicy(g.policy); err != nil {
			return err
		}
		resp, err := core.RequireHandle(sys.fw.Request(g.subject, sys.stream, "read", nil))
		if err != nil {
			return err
		}
		sub, err := sys.fw.Subscribe(resp.Handle)
		if err != nil {
			return err
		}
		sys.subs = append(sys.subs, sub)
		sys.closers = append(sys.closers, sub.Close)
		go func() {
			for t := range sub.C {
				g.sink(t)
			}
		}()
	}
	return nil
}

func newEmbeddedSystem(opts core.Options, streamName string) *streamSystem {
	fw := core.NewWithOptions("bench", opts)
	sys := &streamSystem{fw: fw, stream: streamName, closers: []func(){fw.Close}}
	sys.publish = func(ts []stream.Tuple) (int, error) { return fw.PublishBatch(sys.stream, ts) }
	return sys
}

func buildEmbedded(q1, q2 func(stream.Tuple)) (*streamSystem, error) {
	sys := newEmbeddedSystem(core.Options{Shards: 1}, "weather")
	if err := sys.fw.RegisterStream(sys.stream, weatherSchema); err != nil {
		return sys, err
	}
	return sys, grantEmbedded(sys, q1, q2)
}

func buildPartitioned(q1, q2 func(stream.Tuple)) (*streamSystem, error) {
	sys := newEmbeddedSystem(core.Options{Shards: 2}, "weather")
	if err := sys.fw.RegisterPartitionedStream(sys.stream, weatherSchema, "winddirection"); err != nil {
		return sys, err
	}
	return sys, grantEmbedded(sys, q1, q2)
}

// buildTCP puts the embedded framework behind the data server: one
// publishing connection plus one connection per subscription, which is
// what the protocol allows.
func buildTCP(q1, q2 func(stream.Tuple)) (*streamSystem, error) {
	sys := newEmbeddedSystem(core.Options{Shards: 1}, "weather")
	if err := sys.fw.RegisterStream(sys.stream, weatherSchema); err != nil {
		return sys, err
	}
	srv := server.New(sys.fw.PEP, nil)
	srv.AttachPublisher(sys.fw)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return sys, err
	}
	sys.closers = append(sys.closers, srv.Close)
	dial := func() (*client.Client, error) {
		c, err := client.Dial(addr)
		if err == nil {
			sys.closers = append(sys.closers, func() { _ = c.Close() })
		}
		return c, err
	}
	pub, err := dial()
	if err != nil {
		return sys, err
	}
	sys.publish = func(ts []stream.Tuple) (int, error) { return pub.PublishBatch(sys.stream, ts) }
	for _, g := range grants(sys.stream, q1, q2) {
		if _, err := pub.LoadPolicyObject(g.policy); err != nil {
			return sys, err
		}
		c, err := dial()
		if err != nil {
			return sys, err
		}
		resp, err := client.ExpectGranted(c.RequestAccess(g.subject, sys.stream, "read", nil))
		if err != nil {
			return sys, err
		}
		c.OnTuple = g.sink
		if err := c.Subscribe(resp.Handle); err != nil {
			return sys, err
		}
	}
	return sys, nil
}

// buildRemoteReplicated runs the stream's primary on a dsmsd reached
// over loopback and its follower on a local shard.
func buildRemoteReplicated(q1, q2 func(stream.Tuple)) (*streamSystem, error) {
	eng := dsms.NewEngine("remote")
	remote := dsmsd.NewServer(eng, nil)
	addr, err := remote.Listen("127.0.0.1:0")
	if err != nil {
		eng.Close()
		return &streamSystem{}, err
	}
	sys := newEmbeddedSystem(core.Options{
		ShardAddrs:  []runtime.BackendSpec{{Addr: addr}, {}},
		Replication: 2,
	}, "")
	sys.closers = append([]func(){eng.Close, remote.Close}, sys.closers...)
	// The remote shard is slot 0; pick a name that hashes onto it so the
	// primary is remote and the follower local.
	for i := 0; sys.stream == ""; i++ {
		if name := fmt.Sprintf("weather%d", i); sys.fw.Runtime.ShardForStream(name) == 0 {
			sys.stream = name
		}
	}
	if err := sys.fw.RegisterStream(sys.stream, weatherSchema); err != nil {
		return sys, err
	}
	return sys, grantEmbedded(sys, q1, q2)
}

// avgTolerance is how far, relative to it, a partitioned Q2 average may
// be from the reference (6 ulp are seen; this allows some 4000).
const avgTolerance = 1e-12

// sink consumes one subscription. It checks every delivery: Q1's are
// folded into a digest compared with the reference's at the end, Q2's
// are compared with the reference window by window. During the open
// slice it also notes when each batch's last delivery arrived.
type sink struct {
	run *streamRun
	q2  bool
	// dig, wrong and arrived belong to the consuming goroutine; the
	// generator reads them only after seeing n reach the count it waits
	// for.
	dig     digestOf
	wrong   int64           // Q2 windows that differ from the reference
	next    int64           // Q2: the batch the next window should close
	arrived []time.Duration // per batch of the open slice, since t0
	n       atomic.Int64
}

func (s *sink) on(t stream.Tuple) {
	r := s.run
	now := time.Since(r.t0)
	if len(t.Values) < 2 || (s.q2 && len(t.Values) < 3) {
		r.malformed.Add(1)
		return
	}
	index := t.Values[0].Millis()
	if s.q2 {
		// Windows arrive in order, one per batch: this one closes batch b,
		// and the batches skipped since the last one are lost.
		b := index / batchSize
		want := r.in.q2Avg[b%poolBatches]
		tol := 0.0
		if r.spec.partitioned {
			tol = avgTolerance * want
		}
		if index%batchSize != batchSize-1 || b < s.next || t.Values[2].Double() != r.in.q2Max[b%poolBatches] ||
			math.Abs(t.Values[1].Double()-want) > tol {
			s.wrong++
		} else {
			s.next = b + 1
		}
		s.dig.n++
	} else {
		s.dig.add(index, t.Values[1].Double())
	}
	select {
	case <-r.credits:
	default: // the open loop takes no credits
	}
	if k := index/batchSize - r.openBase.Load(); k >= 0 {
		s.arrived[k] = max(s.arrived[k], now)
	}
	s.n.Store(s.dig.n)
}

// streamRun is the state of one child: generator position, sinks and
// what the checker has found.
type streamRun struct {
	spec streamSpec
	in   *input
	sys  *streamSystem
	tr   *tracer
	t0   time.Time

	q1, q2   sink
	credits  chan struct{}
	next     int64 // next batch to publish
	accepted int64

	// openBase is the first batch of the open slice while it runs; the
	// sinks note arrivals of batches from there on.
	openBase atomic.Int64

	malformed atomic.Int64
	failed    int64
	problems  []string
}

func (r *streamRun) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// publishOne fills and publishes the next batch.
func (r *streamRun) publishOne(parent int32) error {
	b := r.next
	sp := r.tr.begin("gen.fill", parent, b)
	ts := r.in.fill(b)
	r.tr.end(sp)
	sp = r.tr.begin("publish.call", parent, b)
	n, err := r.sys.publish(ts)
	r.tr.end(sp)
	r.next++
	r.accepted += int64(n)
	if err != nil {
		return fmt.Errorf("publish batch %d: %w", b, err)
	}
	return nil
}

// settle flushes the runtime and waits for every delivery the reference
// expects; verify counts what is still missing after deliveryTimeout.
func (r *streamRun) settle(parent int32) {
	sp := r.tr.begin("flush", parent, -1)
	r.sys.fw.Flush()
	r.tr.end(sp)
	sp = r.tr.begin("deliver.wait", parent, -1)
	want1, want2 := r.in.q1Count(r.next), r.next
	deadline := time.Now().Add(deliveryTimeout)
	for (r.q1.n.Load() < want1 || r.q2.n.Load() < want2) && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	r.tr.end(sp)
}

// closedLoop publishes, within closedCredits, until stop says so, then
// settles. stop sees the time since the loop began.
func (r *streamRun) closedLoop(name string, stop func(time.Duration) bool) error {
	parent := r.tr.begin(name, -1, -1)
	defer r.tr.end(parent)
	begin := time.Now()
	for !stop(time.Since(begin)) {
		for n := r.in.q1Count(r.next+1) - r.in.q1Count(r.next) + 1; n > 0; n-- {
			r.credits <- struct{}{}
		}
		if err := r.publishOne(parent); err != nil {
			return err
		}
	}
	r.settle(parent)
	return nil
}

// openResult is what one open slice measured.
type openResult struct {
	// latency[w] holds, for the batches of window w, the time from when
	// the batch was due to when the last of its results had arrived, ns.
	latency [windowsPerSlice][]float64
	late    []float64 // generator lateness per batch, ns
	backlog []float64 // offered-ingested every 50 ms, tuples
	// lagMid and lagEnd are how far behind its schedule the system was
	// at the middle and at the end of the slice: the generator's lateness
	// plus the time the backlog is worth at the offered rate.
	lagMid, lagEnd time.Duration
}

// openLoop offers batches on a fixed schedule for d, whatever the
// system does, timing each from when it was due.
func (r *streamRun) openLoop(d time.Duration) (openResult, error) {
	var res openResult
	parent := r.tr.begin("slice.open", -1, -1)
	defer r.tr.end(parent)
	interval := time.Duration(float64(batchSize) / r.spec.rate * float64(time.Second))
	batches := int64(d / interval)
	r.q1.arrived, r.q2.arrived = make([]time.Duration, batches), make([]time.Duration, batches)
	start := time.Since(r.t0) + time.Millisecond
	due := func(k int64) time.Duration { return start + time.Duration(k)*interval }
	r.openBase.Store(r.next)
	defer r.openBase.Store(math.MaxInt64)
	res.late = make([]float64, 0, batches)
	nextSample := start
	for k := int64(0); k < batches; k++ {
		now := time.Since(r.t0)
		for now < due(k) {
			// Sleep through long gaps, so the netpoller runs, but only in
			// whole ms: with sockets open an idle P sleeps in epoll_wait,
			// whose timeout is in ms, and any other request wakes up to a
			// ms late. Yield, not spin, through the rest.
			if wait := due(k) - now - 150*time.Microsecond; wait >= time.Millisecond {
				time.Sleep(wait.Truncate(time.Millisecond))
			} else {
				goruntime.Gosched()
			}
			now = time.Since(r.t0)
		}
		res.late = append(res.late, float64(now-due(k)))
		if now >= nextSample || k == batches/2 || k == batches-1 {
			nextSample += 50 * time.Millisecond
			bl := r.backlogNow()
			res.backlog = append(res.backlog, bl)
			lag := now - due(k) + time.Duration(bl/r.spec.rate*float64(time.Second))
			if k <= batches/2 {
				res.lagMid = lag
			}
			res.lagEnd = lag
		}
		if err := r.publishOne(parent); err != nil {
			return res, err
		}
		// After a stall the generator catches up with batches back to
		// back; yielding between them lets the consumers run, or on one P
		// a few ms of catching up overflow a subscription's buffer.
		goruntime.Gosched()
	}
	r.settle(parent)
	for k := int64(0); k < batches; k++ {
		// A batch whose window never arrived is lost; verify counts it.
		if done := max(r.q1.arrived[k], r.q2.arrived[k]); r.q2.arrived[k] > 0 {
			w := k * windowsPerSlice / batches
			res.latency[w] = append(res.latency[w], float64(done-due(k)))
		}
	}
	return res, nil
}

// backlogNow is offered minus ingested for the workload's stream.
func (r *streamRun) backlogNow() float64 {
	for _, row := range r.sys.fw.Stats().Streams {
		if row.Stream == r.sys.stream {
			return float64(row.Offered) - float64(row.Ingested+row.Dropped+row.Errors)
		}
	}
	return 0
}

// verify compares everything delivered so far with the reference and
// the runtime's counters with what was published.
func (r *streamRun) verify() {
	offered := r.next * batchSize
	if r.accepted != offered {
		r.failed += offered - r.accepted
		r.problem("accepted %d of %d offered", r.accepted, offered)
	}
	st := r.sys.fw.Stats()
	tot := st.Total()
	if tot.Offered != tot.Ingested+tot.Dropped+tot.Errors || tot.Dropped != 0 || tot.Errors != 0 || st.Rejected != 0 {
		r.failed += int64(tot.Dropped + tot.Errors + st.Rejected)
		r.problem("runtime accounting: offered %d ingested %d dropped %d errors %d rejected %d",
			tot.Offered, tot.Ingested, tot.Dropped, tot.Errors, st.Rejected)
	}
	for _, row := range st.Streams {
		if row.Stream == r.sys.stream && (row.Offered != uint64(offered) || row.Ingested != uint64(offered)) {
			r.problem("stream %s: offered %d ingested %d, published %d", row.Stream, row.Offered, row.Ingested, offered)
		}
	}
	if d := r.sys.dropped(); d != 0 {
		r.problem("subscriptions dropped %d tuples", d)
	}
	for _, lag := range r.sys.fw.Runtime.ReplicaLag(r.sys.stream) {
		if lag.Lag != 0 || lag.Gaps != 0 {
			r.failed += int64(lag.Gaps)
			r.problem("replica on shard %d: lag %d gaps %d after flush", lag.Shard, lag.Lag, lag.Gaps)
		}
	}
	if n := r.malformed.Load(); n != 0 {
		r.problem("%d malformed deliveries", n)
	}
	ref, got := r.in.q1Reference(r.next), r.q1.dig
	if got.n < ref.n {
		r.failed += ref.n - got.n
	}
	if got.n != ref.n || got.multiset != ref.multiset || (!r.spec.partitioned && got.ordered != ref.ordered) {
		r.problem("Q1: delivered %d tuples (digest %x/%x), reference %d (%x/%x)",
			got.n, got.ordered, got.multiset, ref.n, ref.ordered, ref.multiset)
	}
	if n := r.q2.dig.n; n < r.next {
		r.failed += (r.next - n) * batchSize
	}
	if r.q2.dig.n != r.next || r.q2.wrong != 0 {
		r.problem("Q2: delivered %d windows, %d of them wrong; reference %d", r.q2.dig.n, r.q2.wrong, r.next)
	}
}

// runStreamChild is one round of one stream workload in this process.
func runStreamChild(name string, cfg childConfig) (*childResult, error) {
	spec := streamSpecs[name]
	r := &streamRun{spec: spec, in: newInput(cfg.seed), t0: cfg.start, credits: make(chan struct{}, closedCredits)}
	r.tr = newTracer(cfg.traced, cfg.start)
	r.q1.run, r.q2.run, r.q2.q2 = r, r, true
	r.openBase.Store(math.MaxInt64)
	sys, err := spec.build(r.q1.on, r.q2.on)
	r.sys = sys
	defer sys.close()
	if err != nil {
		return nil, err
	}

	err = r.closedLoop("warmup", func(time.Duration) bool { return r.next*batchSize >= spec.warmTuples })
	if err != nil {
		return nil, err
	}
	res := newChildResult(name, cfg)
	res.InputDigest = r.in.digest
	res.E2E["setup_s"] = time.Since(cfg.start).Seconds()

	// Closed slice. An item is complete when Q2 has answered its batch.
	goruntime.GC()
	m := startMeter(cfg.slice, cfg.slice, func() float64 { return float64(r.q2.n.Load() * batchSize) })
	if err := r.closedLoop("slice.closed", m.tick); err != nil {
		return nil, err
	}
	m.stop(res)

	open, err := r.openLoop(cfg.slice)
	if err != nil {
		return nil, err
	}
	var all []float64
	for _, lat := range open.latency {
		res.window("latency_ms_p50", quantile(lat, 0.50)/1e6)
		all = append(all, lat...)
	}
	res.LatencySamples = len(all)
	res.Layer["diag.latency_ms_p90"] = quantile(all, 0.90) / 1e6
	res.Layer["diag.latency_ms_p99"] = quantile(all, 0.99) / 1e6
	res.Layer["diag.generator_late_ms_p99"] = quantile(open.late, 0.99) / 1e6
	res.Layer["runtime.backlog_items_p50"] = quantile(open.backlog, 0.50)
	res.Layer["runtime.backlog_items_max"] = quantile(open.backlog, 1)
	res.Layer["dsms.sub_dropped"] = float64(r.sys.dropped())
	// A system too slow for the rate falls behind steadily: a tenth of
	// the slice behind at its end and already a quarter of that at its
	// middle. (One stall of the host near the end is behind at the end
	// only.) The latency percentiles then mean nothing.
	if open.lagEnd > cfg.slice/10 && open.lagMid > open.lagEnd/4 {
		r.problem("open loop at %.0f/s not sustained: %v behind at the middle of the slice, %v at its end",
			spec.rate, open.lagMid, open.lagEnd)
	}
	if len(all) < minLatencySamples && cfg.slice >= fullSlice {
		r.problem("only %d latency samples", len(all))
	}

	r.verify()
	if r.tr != nil {
		res.Layer["span.publish_call_us_p50"] = median(r.tr.durations("publish.call", "slice.open")) / 1e3
		res.Layer["span.flush_ms"] = median(r.tr.durations("flush", "")) / 1e6
		res.Layer["diag.trace_overhead_share"] = r.tr.overheadShare("slice.closed")
		if err := r.tr.write(tracePath(name), name, cfg.seed); err != nil {
			return nil, err
		}
	}
	res.Attempted = r.next * batchSize
	res.Failed = r.failed
	res.Problems = r.problems
	return res, nil
}
