package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dsms"
	"repro/internal/dsmsd"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/workload"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

// The probes replay one fixed piece of input, single-threaded, through
// one layer's exported entry point at a time. Adjacent probes differ by
// one layer, so the cost of a layer is the difference of two of them.
const (
	// probeReps is how often a probe that takes milliseconds repeats;
	// it reports the median.
	probeReps = 5
)

// probeBatches is how much input a probe replays: the workload's first
// 512 batches, fewer under a test's short slices.
var probeBatches = 512

type prober struct {
	in     *input
	w      *workload.Workload
	seq    []int
	layer  map[string]float64
	q1, q2 *dsms.QueryGraph
}

func (p *prober) batches() [][]stream.Tuple {
	out := make([][]stream.Tuple, probeBatches)
	for b := range out {
		out[b] = p.in.fill(int64(b))
	}
	return out
}

func runProbes(cfg childConfig) (*childResult, error) {
	params := workload.TableThree()
	params.Seed = cfg.seed
	w, err := workload.Generate(params)
	if err != nil {
		return nil, err
	}
	res := newChildResult("probes", cfg)
	if cfg.slice < fullSlice {
		probeBatches = 64
	}
	p := &prober{in: newInput(cfg.seed), w: w, seq: w.ZipfSequence(2000, cfg.seed+1), layer: res.Layer}
	pol1, pol2 := queryPolicies("weather")
	if p.q1, err = xacmlplus.ObligationsToGraph("weather", pol1.Obligations.Obligations); err != nil {
		return nil, err
	}
	if p.q2, err = xacmlplus.ObligationsToGraph("weather", pol2.Obligations.Obligations); err != nil {
		return nil, err
	}
	for _, probe := range []func() error{
		p.codec, p.frames, p.rpc, p.engineIngest, p.engineDeploy,
		p.runtimePublish, p.dsmsdIngest, p.serverPublish, p.policy, p.durable,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// replay pushes the probe's batches through ingest and then flush,
// probeReps times over with fresh batches each time (the layers own what
// they are given), and returns the median time and the allocations of
// the last repetition, both per tuple.
func (p *prober) replay(ingest func([]stream.Tuple) error, flush func()) (ns, allocs float64, err error) {
	var times []float64
	var before uint64
	for i := 0; i < probeReps; i++ {
		batches := p.batches()
		before = mallocs()
		t0 := time.Now()
		for _, ts := range batches {
			if err := ingest(ts); err != nil {
				return 0, 0, err
			}
		}
		flush()
		times = append(times, float64(time.Since(t0)))
	}
	tuples := float64(probeBatches * batchSize)
	return median(times) / tuples, float64(mallocs()-before) / tuples, nil
}

func mallocs() uint64 {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.Mallocs
}

// codec: the tuple's JSON form, which every hop re-encodes, and the
// row-to-column transpose at the engine's door.
func (p *prober) codec() error {
	batches := p.batches()
	var enc, dec []float64
	bytesOut := 0
	for _, ts := range batches {
		t0 := time.Now()
		docs := make([][]byte, len(ts))
		for i := range ts {
			doc, err := ts[i].MarshalJSON()
			if err != nil {
				return err
			}
			docs[i] = doc
		}
		t1 := time.Now()
		for _, doc := range docs {
			var t stream.Tuple
			if err := t.UnmarshalJSON(doc); err != nil {
				return err
			}
			bytesOut += len(doc)
		}
		enc, dec = append(enc, float64(t1.Sub(t0))), append(dec, float64(time.Since(t1)))
	}
	p.layer["stream.json_encode_ns_per_item"] = median(enc) / batchSize
	p.layer["stream.json_decode_ns_per_item"] = median(dec) / batchSize
	p.layer["stream.json_bytes_per_item"] = float64(bytesOut) / float64(probeBatches*batchSize)

	cb := stream.NewColBatch(weatherSchema)
	var load []float64
	for _, ts := range batches {
		t0 := time.Now()
		if err := cb.LoadTuples(ts, false); err != nil {
			return err
		}
		load = append(load, float64(time.Since(t0)))
	}
	p.layer["stream.load_cols_ns_per_item"] = median(load) / batchSize
	return nil
}

// frames: one publish request and one pushed tuple as protocol frames.
func (p *prober) frames() error {
	var enc, dec []float64
	var buf bytes.Buffer
	publishBytes := 0
	for b, ts := range p.batches() {
		buf.Reset()
		t0 := time.Now()
		m, err := protocol.Encode(server.MsgPublish, uint64(b), server.PublishReq{Stream: "weather", Tuples: ts})
		if err != nil {
			return err
		}
		if err := protocol.WriteFrame(&buf, m); err != nil {
			return err
		}
		t1 := time.Now()
		publishBytes += buf.Len()
		got, err := protocol.ReadFrame(&buf)
		if err != nil {
			return err
		}
		if _, err := protocol.Decode[server.PublishReq](got); err != nil {
			return err
		}
		enc, dec = append(enc, float64(t1.Sub(t0))), append(dec, float64(time.Since(t1)))
	}
	p.layer["protocol.encode_publish_ns_per_item"] = median(enc) / batchSize
	p.layer["protocol.decode_publish_ns_per_item"] = median(dec) / batchSize
	p.layer["protocol.publish_frame_bytes_per_item"] = float64(publishBytes) / float64(probeBatches*batchSize)

	// What a subscriber receives per delivered Q1 tuple.
	deliverBytes, delivered := 0, 0
	for i := int64(0); i < int64(probeBatches*batchSize); i++ {
		if rain := p.in.row(i)[fRainRate]; rain > rainThreshold {
			buf.Reset()
			out := stream.NewTuple(stream.TimestampMillis(i), stream.DoubleValue(rain))
			out.Seq, out.ArrivalMillis = uint64(i+1), time.Now().UnixMilli()
			m, err := protocol.Encode(server.MsgStreamTuple, 1, out)
			if err != nil {
				return err
			}
			if err := protocol.WriteFrame(&buf, m); err != nil {
				return err
			}
			deliverBytes += buf.Len()
			delivered++
		}
	}
	p.layer["protocol.deliver_frame_bytes_per_item"] = float64(deliverBytes) / float64(max(delivered, 1))
	return nil
}

// rpc: the round trip of an empty request over loopback.
func (p *prober) rpc() error {
	srv := server.New(xacmlplus.NewPEP(xacml.NewPDP(), xacmlplus.LocalEngine{E: dsms.NewEngine("rpc")}), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	var rtt []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if _, err := c.Stats(); err != nil {
			return err
		}
		rtt = append(rtt, float64(time.Since(t0)))
	}
	p.layer["protocol.rpc_rtt_us_p50"] = median(rtt) / 1e3
	return nil
}

// drain consumes a subscription until it closes.
func drain(c <-chan stream.Tuple) {
	go func() {
		for range c {
		}
	}()
}

// engineIngest is rung 2: Engine.IngestBatch with Q1 and Q2 deployed
// and subscribed.
func (p *prober) engineIngest() error {
	eng := dsms.NewEngine("probe")
	defer eng.Close()
	if err := eng.CreateStream("weather", weatherSchema); err != nil {
		return err
	}
	for _, g := range []*dsms.QueryGraph{p.q1, p.q2} {
		dep, err := eng.Deploy(g)
		if err != nil {
			return err
		}
		sub, err := eng.Subscribe(dep.ID)
		if err != nil {
			return err
		}
		drain(sub.C)
	}
	ns, allocs, err := p.replay(func(ts []stream.Tuple) error { return eng.IngestBatch("weather", ts) }, eng.Flush)
	p.layer["dsms.ingest_ns_per_item"] = ns
	p.layer["dsms.ingest_allocs_per_item"] = allocs
	return err
}

// engineDeploy: the engine's DDL side with 256 queries already live.
func (p *prober) engineDeploy() error {
	eng := dsms.NewEngine("probe")
	defer eng.Close()
	if err := eng.CreateStream("weather", weatherSchema); err != nil {
		return err
	}
	for i := 0; i < 256; i++ {
		if _, err := eng.Deploy(p.q1); err != nil {
			return err
		}
	}
	var deploy, withdraw []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		dep, err := eng.Deploy(p.q1)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := eng.Withdraw(dep.ID); err != nil {
			return err
		}
		deploy, withdraw = append(deploy, float64(t1.Sub(t0))), append(withdraw, float64(time.Since(t1)))
	}
	p.layer["dsms.deploy_us_p50"] = median(deploy) / 1e3
	p.layer["dsms.withdraw_us_p50"] = median(withdraw) / 1e3
	return nil
}

// runtimePublish is rungs 3, 4 and 5: Runtime.PublishBatch into one
// local shard, into a stream partitioned over two, and into a stream
// replicated on two.
func (p *prober) runtimePublish() error {
	for _, rung := range []struct {
		metric      string
		opts        runtime.Options
		partitioned bool
	}{
		{"runtime.publish", runtime.Options{Shards: 1}, false},
		{"runtime.partitioned_publish", runtime.Options{Shards: 2}, true},
		{"runtime.replicated_publish", runtime.Options{Shards: 2, Replication: 2}, false},
	} {
		if err := p.publishRung(rung.metric, rung.opts, rung.partitioned); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) publishRung(metric string, opts runtime.Options, partitioned bool) error {
	rt := runtime.New("probe", opts)
	defer rt.Close()
	var err error
	if partitioned {
		err = rt.CreatePartitionedStream("weather", weatherSchema, "winddirection")
	} else {
		err = rt.CreateStream("weather", weatherSchema)
	}
	if err != nil {
		return err
	}
	for _, g := range []*dsms.QueryGraph{p.q1, p.q2} {
		dep, err := rt.Deploy(g)
		if err != nil {
			return err
		}
		sub, err := rt.Subscribe(dep.ID)
		if err != nil {
			return err
		}
		drain(sub.C)
	}
	ns, allocs, err := p.replay(func(ts []stream.Tuple) error {
		_, err := rt.PublishBatch("weather", ts)
		return err
	}, rt.Flush)
	if err != nil {
		return err
	}
	p.layer[metric+"_ns_per_item"] = ns
	if opts.Shards == 1 {
		p.layer["runtime.publish_allocs_per_item"] = allocs
	}
	if opts.Replication > 1 {
		var lagMax, gaps uint64
		for _, l := range rt.ReplicaLag("weather") {
			lagMax, gaps = max(lagMax, l.Lag), gaps+l.Gaps
		}
		p.layer["runtime.replica_lag_max"] = float64(lagMax)
		p.layer["runtime.replica_gaps"] = float64(gaps)
	}
	return nil
}

// dsmsdIngest: the prevalidated batch ingest a RemoteBackend sends, to a
// dsmsd running Q1 and Q2.
func (p *prober) dsmsdIngest() error {
	eng := dsms.NewEngine("probe")
	defer eng.Close()
	srv := dsmsd.NewServer(eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := dsmsd.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.CreateStream("weather", weatherSchema); err != nil {
		return err
	}
	for _, g := range []*dsms.QueryGraph{p.q1, p.q2} {
		if _, err := eng.Deploy(g); err != nil {
			return err
		}
	}
	var calls []float64
	for _, ts := range p.batches() {
		t0 := time.Now()
		if err := c.IngestBatchPrevalidated("weather", ts); err != nil {
			return err
		}
		calls = append(calls, float64(time.Since(t0)))
	}
	p.layer["dsmsd.ingest_ns_per_item"] = median(calls) / batchSize
	return c.Flush()
}

// serverPublish: client.PublishBatch to a data server whose stream has
// no query, which leaves framing, server and queue.
func (p *prober) serverPublish() error {
	fw := core.NewWithOptions("probe", core.Options{Shards: 1})
	defer fw.Close()
	if err := fw.RegisterStream("weather", weatherSchema); err != nil {
		return err
	}
	srv := server.New(fw.PEP, nil)
	srv.AttachPublisher(fw)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	var calls []float64
	for _, ts := range p.batches() {
		t0 := time.Now()
		if _, err := c.PublishBatch("weather", ts); err != nil {
			return err
		}
		calls = append(calls, float64(time.Since(t0)))
	}
	fw.Flush()
	p.layer["server.publish_ns_per_item"] = median(calls) / batchSize
	return nil
}

// policy: the PDP alone, and the whole PEP without sockets, over the
// access workload's request sequence with its 1000 policies loaded.
func (p *prober) policy() error {
	fw := core.New("probe")
	defer fw.Close()
	for i, pol := range p.w.Policies {
		if err := fw.RegisterStream(p.w.Streams[i], p.w.Schema); err != nil {
			return err
		}
		if err := fw.AddPolicy(pol); err != nil {
			return err
		}
	}
	var evaluate, request []float64
	for _, i := range p.seq {
		item := p.w.Items[i]
		req := xacml.NewRequest(item.Subject, item.Resource, "read")
		var uq *xacmlplus.UserQuery
		if item.UserQueryXML != "" {
			var err error
			if uq, err = xacmlplus.ParseUserQuery([]byte(item.UserQueryXML)); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if _, err := fw.PDP.Evaluate(req); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := core.RequireHandle(fw.Request(item.Subject, item.Resource, "read", uq)); err != nil {
			return err
		}
		if err := fw.Release(item.Subject, item.Resource); err != nil {
			return err
		}
		evaluate, request = append(evaluate, float64(t1.Sub(t0))), append(request, float64(time.Since(t1)))
	}
	p.layer["xacml.evaluate_us_p50"] = median(evaluate) / 1e3
	p.layer["xacmlplus.request_us_p50"] = median(request) / 1e3
	return nil
}

// durable: what Close pays for its final checkpoint and what the next
// Boot pays to recover, with 64 window queries over 100k tuples.
func (p *prober) durable() error {
	dir, err := os.MkdirTemp(outDir, "state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := core.Options{StateDir: filepath.Join(dir, "state")}
	fw, err := core.Boot("probe", opts)
	if err != nil {
		return err
	}
	if err := fw.RegisterStream("weather", weatherSchema); err != nil {
		fw.Close()
		return err
	}
	for i := 0; i < 64; i++ {
		if _, err := fw.Runtime.Deploy(p.q2); err != nil {
			fw.Close()
			return err
		}
	}
	for b := int64(0); b < 100_000/batchSize; b++ {
		if _, err := fw.PublishBatch("weather", p.in.fill(b)); err != nil {
			fw.Close()
			return err
		}
	}
	fw.Flush()
	t0 := time.Now()
	fw.Close()
	p.layer["durable.checkpoint_ms"] = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	fw, err = core.Boot("probe", opts)
	if err != nil {
		return err
	}
	p.layer["durable.recovery_boot_ms"] = float64(time.Since(t0)) / 1e6
	defer fw.Close()
	if got := fw.Runtime.QueryCount(); got != 64 {
		return fmt.Errorf("durable probe: %d queries after recovery, 64 before", got)
	}
	return nil
}
