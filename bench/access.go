package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	goruntime "runtime"
	"time"

	"repro/internal/client"
	"repro/internal/dsms"
	"repro/internal/dsmsd"
	"repro/internal/proxy"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

const (
	// Standing grants are taken at set-up and never released, so every
	// measured deploy lands on an engine that already runs hundreds of
	// queries.
	standingFirst, standingCount = 500, 200
	// liveGrants is how many grants the client holds before it releases
	// the oldest.
	liveGrants     = 64
	accessWarmup   = 300
	accessSequence = 1 << 16
)

// accessStack is the paper's deployment without the simulated network:
// client, caching proxy, data server with PDP and PEP, and the DSMS
// behind its own socket.
type accessStack struct {
	engine  *dsms.Engine
	proxy   *proxy.Proxy
	client  *client.Client
	closers []func()
}

func (s *accessStack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

func buildAccessStack(w *workload.Workload) (*accessStack, error) {
	s := &accessStack{engine: dsms.NewEngine("cloud")}
	s.closers = append(s.closers, s.engine.Close)
	for _, name := range w.Streams {
		if err := s.engine.CreateStream(name, w.Schema); err != nil {
			return s, err
		}
	}
	dsmsServer := dsmsd.NewServer(s.engine, nil)
	dsmsAddr, err := dsmsServer.Listen("127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.closers = append(s.closers, dsmsServer.Close)
	pepEngine, err := dsmsd.Dial(dsmsAddr)
	if err != nil {
		return s, err
	}
	s.closers = append(s.closers, func() { _ = pepEngine.Close() })
	dataServer := server.New(xacmlplus.NewPEP(xacml.NewPDP(), pepEngine), nil)
	serverAddr, err := dataServer.Listen("127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.closers = append(s.closers, dataServer.Close)
	if s.proxy, err = proxy.New(serverAddr, nil); err != nil {
		return s, err
	}
	s.closers = append(s.closers, s.proxy.Close)
	s.proxy.SetCaching(true)
	proxyAddr, err := s.proxy.Listen("127.0.0.1:0")
	if err != nil {
		return s, err
	}
	if s.client, err = client.Dial(proxyAddr); err != nil {
		return s, err
	}
	s.closers = append(s.closers, func() { _ = s.client.Close() })
	return s, nil
}

// accessRun replays the request sequence and checks every answer.
type accessRun struct {
	w     *workload.Workload
	stack *accessStack
	tr    *tracer
	seq   []int
	next  int // position in seq, cycled

	handles map[int]string // item -> handle of its live grant
	fifo    []int          // released oldest first

	// Samples of the measured loop, reset by startMeasuring.
	samples  []accessSample
	releases []float64
	idle     []float64 // ns between an answer handled and the next request sent

	failed   int64
	problems []string
}

type accessSample struct {
	at                      time.Duration // since the loop began, at completion
	total                   float64       // ns
	pdp, graph, engine      float64
	proxyHit, reused, valid bool
}

func (r *accessRun) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// request sends the sequence's next access request, checks the answer
// and releases the oldest grant beyond liveGrants.
func (r *accessRun) request(parent int32, elapsed time.Duration) {
	id := r.next
	item := r.w.Items[r.seq[id%len(r.seq)]]
	r.next++
	hitsBefore, _ := r.stack.proxy.Stats()
	sp := r.tr.begin("request.call", parent, int64(id))
	t0 := time.Now()
	resp, err := r.stack.client.RequestAccessXML(item.RequestXML, item.UserQueryXML)
	total := time.Since(t0)
	r.tr.end(sp)
	hitsAfter, _ := r.stack.proxy.Stats()
	s := accessSample{at: elapsed + total, total: float64(total), proxyHit: hitsAfter > hitsBefore}
	defer func() { r.samples = append(r.samples, s) }()
	if err != nil || !resp.Granted() {
		r.failed++
		r.problem("request %d (item %d): err=%v decision=%s verdict=%s", id, item.Index, err, resp.Decision, resp.Verdict)
		return
	}
	s.valid, s.reused = true, resp.Reused
	s.pdp, s.graph, s.engine = float64(resp.PDPNanos), float64(resp.GraphNanos), float64(resp.EngineNanos)
	live, held := r.handles[item.Index]
	switch {
	case resp.Reused && (!held || live != resp.Handle):
		// The proxy's cache or the PEP answered with a handle that is
		// not the grant this client holds.
		r.failed++
		r.problem("request %d (item %d): reused handle %q, live handle %q", id, item.Index, resp.Handle, live)
	case !resp.Reused && held:
		r.failed++
		r.problem("request %d (item %d): deployed again while handle %q is live", id, item.Index, live)
	case !resp.Reused:
		r.handles[item.Index] = resp.Handle
		r.fifo = append(r.fifo, item.Index)
	}
	if len(r.fifo) > liveGrants {
		old := r.w.Items[r.fifo[0]]
		r.fifo = r.fifo[1:]
		delete(r.handles, old.Index)
		sp := r.tr.begin("release.call", parent, int64(id))
		t0 := time.Now()
		err := r.stack.client.Release(old.Subject, old.Resource)
		r.releases = append(r.releases, float64(time.Since(t0)))
		r.tr.end(sp)
		if err != nil {
			r.failed++
			r.problem("release of item %d: %v", old.Index, err)
		}
	}
}

// loop is the closed loop: one client, the next request as soon as the
// last is answered.
func (r *accessRun) loop(name string, stop func(time.Duration) bool) {
	parent := r.tr.begin(name, -1, -1)
	defer r.tr.end(parent)
	begin := time.Now()
	handled := begin
	for {
		elapsed := time.Since(begin)
		if stop(elapsed) {
			return
		}
		r.idle = append(r.idle, float64(time.Since(handled)))
		r.request(parent, elapsed)
		handled = time.Now()
	}
}

func accessDigest(w *workload.Workload, seq []int) string {
	h := sha256.New()
	for _, p := range w.PolicyXML {
		h.Write([]byte(p))
	}
	for _, it := range w.Items {
		h.Write([]byte(it.RequestXML))
		h.Write([]byte(it.UserQueryXML))
	}
	for _, i := range seq {
		h.Write([]byte{byte(i), byte(i >> 8)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runAccessChild is one round of access_control in this process.
func runAccessChild(cfg childConfig) (*childResult, error) {
	params := workload.TableThree()
	params.Seed = cfg.seed
	w, err := workload.Generate(params)
	if err != nil {
		return nil, err
	}
	r := &accessRun{w: w, tr: newTracer(cfg.traced, cfg.start), handles: map[int]string{},
		seq: w.ZipfSequence(accessSequence, cfg.seed+1)}
	res := newChildResult("access_control", cfg)
	res.InputDigest = accessDigest(w, r.seq)
	r.stack, err = buildAccessStack(w)
	defer r.stack.close()
	if err != nil {
		return nil, err
	}

	loads := make([]float64, 0, len(w.PolicyXML))
	for _, doc := range w.PolicyXML {
		t0 := time.Now()
		if _, err := r.stack.client.LoadPolicy([]byte(doc)); err != nil {
			return nil, err
		}
		loads = append(loads, float64(time.Since(t0)))
	}
	for _, item := range w.Items[standingFirst : standingFirst+standingCount] {
		resp, err := client.ExpectGranted(r.stack.client.RequestAccessXML(item.RequestXML, item.UserQueryXML))
		if err != nil {
			return nil, fmt.Errorf("standing grant, item %d: %w", item.Index, err)
		}
		r.handles[item.Index] = resp.Handle
	}
	r.loop("warmup", func(time.Duration) bool { return r.next >= accessWarmup })
	res.E2E["setup_s"] = time.Since(cfg.start).Seconds()

	// One closed slice, twice as long as a stream workload's: there is no
	// open slice, requests have no schedule to keep.
	r.samples, r.releases, r.idle = nil, nil, nil
	hits0, _ := r.stack.proxy.Stats()
	goruntime.GC()
	m := startMeter(cfg.slice, 2*cfg.slice, func() float64 { return float64(len(r.samples)) })
	r.loop("slice.closed", m.tick)
	m.stop(res)
	hits1, _ := r.stack.proxy.Stats()

	window := cfg.slice / windowsPerSlice
	byWindow := make([][]float64, 2*windowsPerSlice)
	var all, hit, miss, pdp, graph, engine, hops []float64
	for _, s := range r.samples {
		if w := int(s.at / window); w < len(byWindow) {
			byWindow[w] = append(byWindow[w], s.total)
		}
		all = append(all, s.total)
		switch {
		case !s.valid:
		case s.proxyHit:
			hit = append(hit, s.total)
		case !s.reused:
			miss = append(miss, s.total)
			pdp, graph, engine = append(pdp, s.pdp), append(graph, s.graph), append(engine, s.engine)
			hops = append(hops, s.total-s.pdp-s.graph-s.engine)
		}
	}
	for _, lat := range byWindow {
		if len(lat) > 0 {
			res.window("latency_ms_p50", quantile(lat, 0.50)/1e6)
		}
	}
	res.LatencySamples = len(all)
	res.Layer["diag.latency_ms_p90"] = quantile(all, 0.90) / 1e6
	res.Layer["diag.latency_ms_p99"] = quantile(all, 0.99) / 1e6
	// In a closed loop a request is due when the last one is answered;
	// the generator is late by its own bookkeeping between the two.
	res.Layer["diag.generator_late_ms_p99"] = quantile(r.idle, 0.99) / 1e6
	res.Layer["runtime.backlog_items_p50"] = 0 // no tuple path in this workload
	res.Layer["runtime.backlog_items_max"] = 0
	res.Layer["dsms.sub_dropped"] = 0
	res.Layer["xacml.policy_load_ms_p50"] = median(loads) / 1e6
	res.Layer["xacml.pdp_ms_p50"] = median(pdp) / 1e6
	res.Layer["xacmlplus.graph_ms_p50"] = median(graph) / 1e6
	res.Layer["dsms.deploy_ms_p50"] = median(engine) / 1e6
	res.Layer["server.hops_ms_p50"] = median(hops) / 1e6
	res.Layer["access.miss_ms_p50"] = median(miss) / 1e6
	res.Layer["proxy.cache_hit_share"] = float64(hits1-hits0) / float64(len(r.samples))
	res.Layer["proxy.hit_ms_p50"] = median(hit) / 1e6
	res.Layer["client.release_ms_p50"] = median(r.releases) / 1e6

	if got, want := r.stack.engine.QueryCount(), standingCount+len(r.fifo); got != want {
		r.problem("engine runs %d queries, %d standing + %d live expected", got, standingCount, len(r.fifo))
	}
	if len(all) < minLatencySamples && cfg.slice >= fullSlice {
		r.problem("only %d latency samples", len(all))
	}
	if r.tr != nil {
		res.Layer["diag.trace_overhead_share"] = r.tr.overheadShare("slice.closed")
		if err := r.tr.write(tracePath("access_control"), "access_control", cfg.seed); err != nil {
			return nil, err
		}
	}
	res.Attempted = int64(r.next + standingCount)
	res.Failed = r.failed
	res.Problems = r.problems
	return res, nil
}
