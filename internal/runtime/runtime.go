// Package runtime is the sharded ingest plane of the reproduction: it
// fronts a pool of shard backends with bounded per-shard queues,
// batched publishing and Aurora-style load-shedding, so many concurrent
// publishers scale past the single engine mutex. Each shard slot is a
// ShardBackend — an in-process dsms.Engine (LocalBackend) or a remote
// dsmsd process (RemoteBackend, with health probing, bounded reconnect
// and a failover hook) — so one runtime can span several machines
// (Options.Backends). Streams are hash-partitioned across shards by
// name, or — when registered with a partition key — row-by-row by the
// key attribute's value, in which case continuous queries are deployed
// on every shard and every part pushes into each subscription.
//
// On top of the shard queues sits an admission-control layer: every
// stream registers with a priority Class (BestEffort / Normal /
// Critical, default Normal) and an optional token-bucket quota
// (WithQuota). PublishBatchVerdict enforces the quota before tuples
// reach a shard and reports how many tuples were admitted versus shed,
// and the backpressure policies are class-aware — under overload the
// drop policies evict lowest-class tuples first, and Block can be
// limited to classes at or above Options.BlockClass. Stats exposes the
// resulting per-shard, per-stream and per-class accounting, which
// satisfies offered == ingested + dropped + errors after a Flush.
//
// The admission state is live: Reconfigure atomically swaps a stream's
// class and quota without re-registering it — the lever the
// accountability governor (internal/governor) pulls to demote abusive
// subjects. The runtime is the only admission point: a remote dsmsd
// shard ingests whatever the runtime ships it.
//
// The PEP-facing surface (StreamSchema / DeployScript / Withdraw)
// matches xacmlplus.StreamEngine, so the policy plane runs unchanged on
// top of a sharded runtime.
package runtime

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/coarsetime"
	"repro/internal/dsms"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Policy selects what happens when a shard's queue is full.
type Policy int

const (
	// Block applies backpressure: publishers wait for queue space.
	Block Policy = iota
	// DropNewest sheds the incoming tuple (Aurora-style load-shedding
	// at the source).
	DropNewest
	// DropOldest evicts the oldest queued tuple to admit the new one,
	// keeping the freshest data under overload.
	DropOldest
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropNewest:
		return "dropnewest"
	case DropOldest:
		return "dropoldest"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy reads a policy name (as printed by String).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "block", "":
		return Block, nil
	case "dropnewest", "drop-newest":
		return DropNewest, nil
	case "dropoldest", "drop-oldest":
		return DropOldest, nil
	}
	return Block, fmt.Errorf("runtime: unknown backpressure policy %q", s)
}

// Defaults for Options zero values.
const (
	DefaultQueueSize = 4096
	// DefaultTraceSampleEvery is the publish-trace sampling period: one
	// traced batch in 1024, cheap enough to leave on under load while
	// still filling the stage histograms within seconds at realistic
	// rates.
	DefaultTraceSampleEvery = 1024
	// DefaultMergeBuffer is the merge stage's per-partition reorder
	// bound: how many pending windows (or relayed rows) one partition
	// may buffer while waiting for a slower partition before the oldest
	// pending item is force-released without the laggard, counted in
	// exacml_merge_forced_total. It is the only skew bound: below it
	// the stage waits indefinitely — a dead shard is replication
	// failover's problem, not a reason to time a window out.
	DefaultMergeBuffer = 4096
)

// BackendSpec selects the backend for one shard slot: the zero value
// is an in-process dsms.Engine; a non-empty Addr fronts the dsmsd
// process listening there, tuned by Remote.
type BackendSpec struct {
	// Addr is the dsmsd address of a remote shard; "" or "local" means
	// an in-process engine.
	Addr string
	// Remote tunes the remote backend; ignored for local shards.
	Remote RemoteOptions
}

// ParseShardAddrs reads a comma-separated shard backend list for CLI
// flags: each entry is a dsmsd host:port address, or "local" (or the
// empty string) for an in-process shard. "local,127.0.0.1:7420,local"
// describes a three-shard mixed topology.
func ParseShardAddrs(s string) ([]BackendSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []BackendSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" || strings.EqualFold(part, "local") {
			out = append(out, BackendSpec{})
			continue
		}
		if !strings.Contains(part, ":") {
			return nil, fmt.Errorf("runtime: shard address %q is not host:port (or \"local\")", part)
		}
		out = append(out, BackendSpec{Addr: part})
	}
	return out, nil
}

// Options configures a Runtime.
type Options struct {
	// Shards is the number of engine shards (default 1). Ignored when
	// Backends is set.
	Shards int
	// Backends selects a backend per shard slot (local engine or remote
	// dsmsd process); when non-empty its length is the shard count.
	Backends []BackendSpec
	// QueueSize bounds, in tuples, what may wait on a shard for its
	// drain (default 4096): the copies of admitted batches that the
	// drain goroutine has not yet handed to the backend.
	QueueSize int
	// Policy is the backpressure policy for full queues (default Block).
	Policy Policy
	// BlockClass makes the Block policy class-aware: only streams of
	// this class or above wait for queue space; lower classes are shed
	// when the queue is full. The default (BestEffort, the lowest class)
	// blocks every stream, matching the pre-admission behaviour.
	BlockClass Class
	// Replication is the number of shards each single-shard stream is
	// materialized on: the owning shard plus Replication-1 follower
	// shards receiving an asynchronous copy of every ingested tuple
	// (clamped to the shard count; default 1 = replication off). When
	// the owner's backend goes down, the most caught-up healthy
	// follower is promoted: the retained log tail is flushed to it,
	// publishes are rerouted, and standby query parts deployed on it
	// take over with warm window state. A partitioned stream replicates
	// per partition (sub-routes "name@p").
	Replication int
	// ReplicationLog bounds the retained replication log per stream in
	// tuples (default DefaultReplicationLog). A follower that falls
	// further behind than the retained tail skips the gap (counted in
	// ReplicaLag.Gaps) rather than stalling the primary.
	ReplicationLog int
	// Metrics, when non-nil, receives the runtime's metric families
	// (shard and stream accounting, health events) and, through New,
	// enables engine telemetry on every local shard; the publish-path
	// tracer is built over it too. Nil (the default) keeps telemetry
	// entirely off the hot path.
	Metrics *telemetry.Registry
	// TraceSampleEvery is the publish-trace sampling period in batches
	// (rounded up to a power of two; default DefaultTraceSampleEvery).
	// Ignored without Metrics.
	TraceSampleEvery int
	// Audit, when non-nil, receives a Kind "health" event per shard
	// health transition (connected / reconnected / down / readopted),
	// appended by the shard's health goroutine in the order the
	// transitions apply, on the same hash chain the access decisions
	// land on.
	Audit *audit.Log
	// Catalog, when non-nil, observes every committed control-plane
	// mutation (stream DDL, durable admission swaps, query deploys and
	// withdrawals) so a durable store can persist and replay them; see
	// CatalogObserver.
	Catalog CatalogObserver
}

func (o Options) withDefaults() Options {
	if len(o.Backends) > 0 {
		o.Shards = len(o.Backends)
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.QueueSize <= 0 {
		o.QueueSize = DefaultQueueSize
	}
	if o.TraceSampleEvery <= 0 {
		o.TraceSampleEvery = DefaultTraceSampleEvery
	}
	if o.Replication <= 0 {
		o.Replication = 1
	}
	if o.Replication > o.Shards {
		o.Replication = o.Shards
	}
	if o.ReplicationLog <= 0 {
		o.ReplicationLog = DefaultReplicationLog
	}
	return o
}

var errClosed = errors.New("runtime: closed")

// route records where a stream's tuples go and how they are admitted.
type route struct {
	name   string
	schema *stream.Schema
	// keyIdx is the partition-key field index, or -1 when the whole
	// stream lives on a single shard.
	keyIdx int
	// shard is the owning shard for single-shard streams.
	shard int
	// adm is the stream's live admission state (class + quota bucket),
	// set at registration and atomically replaced by Reconfigure; the
	// publish path loads it once per batch.
	adm atomic.Pointer[admissionState]
	// reconfigures counts live admission swaps applied to the stream.
	reconfigures atomic.Uint64
	// counters is the per-stream admission accounting; deliberately
	// NOT part of the swapped state, so offered == ingested + dropped +
	// errors keeps holding across a class/quota transition.
	counters *streamCounters

	// Replication state (nil repl means the stream is not replicated):
	// replicas are the follower shard indices, repl owns the bounded
	// tuple log and shippers, and failTo is the promoted primary shard
	// after a failover (-1 while the original owner serves). fmu
	// serializes promotion, so two concurrent shard failures cannot
	// promote the same route twice.
	fmu      sync.Mutex
	replicas []int
	repl     *replicator
	failTo   atomic.Int32

	// Global sequence stamping (partitioned routes only): stampG is
	// G, the number of tuples admitted to the route so far — the global
	// position g of the most recently stamped tuple — and stampA[p] is
	// A_p, the highest g routed to logical partition p. stampMu is held
	// from stamping through the bucket enqueues of a batch, so every
	// partition's queue receives its tuples in strictly increasing g
	// order; the staged shard pipelines and the merge stage both rely
	// on that ordering. The frontier is published whole, once per
	// batch and before any of its tuples is enqueued: every changed A_p
	// is stored first, then G. A reader that loads G and then A_p
	// therefore sees an A_p at least as new as the batch that published
	// that G, which is what the merge stage's effective watermark needs
	// (see stampFrontier). The values are atomics so the merge stage
	// can read them WITHOUT the lock: a publisher blocked on a full
	// shard queue holds stampMu, and the merge stage runs on the very
	// consumer chain that drains that queue — taking stampMu there
	// would close a deadlock cycle.
	stampMu sync.Mutex
	stampG  atomic.Uint64
	stampA  []atomic.Uint64
	buckets [][]stream.Tuple // a publish's per-shard split, reused under stampMu

	// subs are the per-partition internal sub-routes of a replicated
	// partitioned stream ("name@p", one per partition, each a
	// replicated single-shard route sharing the parent's counters);
	// nil when replication is off. internal marks such a sub-route
	// itself: hidden from Streams and per-stream Stats, and not a
	// valid publish or deploy target.
	subs     []*route
	internal bool
}

// stampFrontier observes a partitioned route's stamp frontier for the
// merge stage's effective-watermark rule: it returns G and fills a
// with every partition's A_p. It does not take stampMu (see the field
// comment: the caller sits on the queue-consumer side of a possible
// publisher block). G is loaded first and every A_p after it; since a
// publish stores its A_p values before its G, each a[p] covers every
// position up to G that was routed to p — it may be newer still, which
// only makes the caller's W_p >= A_p test harder to pass. A W_p >= a[p]
// therefore proves partition p has no tuple in flight at or below G.
func (r *route) stampFrontier(a []uint64) (g uint64) {
	g = r.stampG.Load()
	for p := range a {
		a[p] = r.stampA[p].Load()
	}
	return g
}

// primaryShard is the shard currently serving the route's ingest: the
// promoted replica after a failover, the registered owner otherwise.
// A shard that is down is still returned: publishes and deploys against
// it fail fast with exact error accounting until a promotion moves
// failTo or the shard is re-adopted.
func (r *route) primaryShard() int {
	if ft := r.failTo.Load(); ft >= 0 {
		return int(ft)
	}
	return r.shard
}

// partitions is how many partitions a query over the route places
// parts for: one per shard for a partitioned stream, one otherwise.
func (r *route) partitions() int {
	if r.keyIdx < 0 {
		return 1
	}
	return len(r.stampA)
}

// placement names the shards that run partition p of a query over the
// route: the shard currently serving the partition, and the followers
// its replication feeds (the original owner among them once a promotion
// has deposed it — re-adoption enlists it as a follower of its own
// stream).
func (r *route) placement(p int) (primary int, followers []int) {
	if r.keyIdx >= 0 {
		if r.subs == nil {
			return p, nil
		}
		r = r.subs[p]
	}
	primary = r.primaryShard()
	if r.repl == nil {
		return primary, nil
	}
	for _, fi := range append([]int{r.shard}, r.replicas...) {
		if fi != primary {
			followers = append(followers, fi)
		}
	}
	return primary, followers
}

// hasReplica reports whether shard i is one of the route's followers.
func (r *route) hasReplica(i int) bool {
	for _, fi := range r.replicas {
		if fi == i {
			return true
		}
	}
	return false
}

// Runtime is the sharded ingest runtime.
type Runtime struct {
	name   string
	opts   Options
	shards []*shard
	start  time.Time

	// reg/tracer are nil unless Options.Metrics was set; every metric
	// and span method tolerates nil, so the hot path needs no guards.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer

	rejected atomic.Uint64

	mu      sync.RWMutex
	routes  map[string]*route
	pending map[string]bool      // stream names being registered (backend RPC in flight)
	deps    map[string]*depState // keyed by runtime id and by handle
	// deploying holds the ids whose parts are being put, before their
	// depState is in deps: an orphan sweep must not delete those parts.
	deploying map[string]bool
	nextDep   int
	closed    bool
}

// New builds a runtime with opts.Shards engine shards (or one shard
// per opts.Backends entry, mixing in-process engines and remote dsmsd
// processes). With one local shard the engine keeps the runtime's name
// (handles look identical to a plain engine's); with more, shard i is
// named "<name>-<i>".
func New(name string, opts Options) *Runtime {
	opts = opts.withDefaults()
	backends := make([]ShardBackend, opts.Shards)
	for i := range backends {
		var spec BackendSpec
		if len(opts.Backends) > 0 {
			spec = opts.Backends[i]
		}
		if spec.Addr == "" || strings.EqualFold(spec.Addr, "local") {
			en := name
			if opts.Shards > 1 {
				en = fmt.Sprintf("%s-%d", name, i)
			}
			eng := dsms.NewEngine(en)
			if opts.Metrics != nil {
				// Local engines record seal/pipeline/push stages and their
				// own counters on the shared registry; histogram families
				// are idempotent, so all shards feed the same series.
				eng.EnableTelemetry(opts.Metrics, opts.TraceSampleEvery)
			}
			backends[i] = NewLocalBackend(eng)
			continue
		}
		backends[i] = NewRemoteBackend(spec.Addr, spec.Remote)
	}
	return NewWithBackends(name, opts, backends)
}

// NewWithBackends builds a runtime over caller-supplied backends (one
// shard slot each, at least one); tests and embedders use it to inject
// custom ShardBackend implementations. A *RemoteBackend among them
// posts its health transitions to its shard's health stream, as under
// New; other backends' health is the caller's to report through
// FailShard and ReadoptShard.
func NewWithBackends(name string, opts Options, backends []ShardBackend) *Runtime {
	if len(backends) == 0 {
		panic("runtime: NewWithBackends needs at least one backend")
	}
	opts.Backends = nil
	opts.Shards = len(backends)
	opts = opts.withDefaults()
	rt := &Runtime{
		name:      name,
		opts:      opts,
		shards:    make([]*shard, len(backends)),
		start:     time.Now(),
		routes:    map[string]*route{},
		pending:   map[string]bool{},
		deps:      map[string]*depState{},
		deploying: map[string]bool{},
	}
	for i, be := range backends {
		rt.shards[i] = newShard(i, be, opts.QueueSize, opts.Policy, opts.BlockClass)
	}
	if opts.Metrics != nil {
		rt.reg = opts.Metrics
		rt.tracer = telemetry.NewPublishTracer(rt.reg, opts.TraceSampleEvery)
		rt.reg.RegisterCollector(rt.collectStats)
	}
	for i, s := range rt.shards {
		s.health = &healthStream{apply: func(ev healthEvent) error { return rt.applyHealth(i, ev) }}
		if rb, ok := s.be.(*RemoteBackend); ok {
			rb.setPost(func(event string, err error) { s.health.post(healthEvent{kind: event, err: err}) })
		}
	}
	return rt
}

// collectStats exports the runtime's accounting as Prometheus families
// at scrape time — zero hot-path cost, and the exported counters are
// exactly the Stats() ones, so the offered == ingested + dropped +
// errors invariant carries over to the exposition.
func (rt *Runtime) collectStats(g *telemetry.Gather) {
	st := rt.Stats()
	g.Counter("exacml_publish_rejected_total",
		"Tuples rejected synchronously for schema violations.", st.Rejected)
	for _, s := range st.Shards {
		lab := telemetry.L("shard", strconv.Itoa(s.Shard))
		g.Counter("exacml_shard_offered_total",
			"Tuples offered to a shard queue.", s.Offered, lab)
		g.Counter("exacml_shard_accepted_total",
			"Tuples accepted into a shard queue.", s.Accepted, lab)
		g.Counter("exacml_shard_dropped_total",
			"Tuples shed by backpressure policy or eviction, per shard.", s.Dropped, lab)
		g.Counter("exacml_shard_ingested_total",
			"Tuples the shard's drain delivered to its backend.", s.Ingested, lab)
		g.Counter("exacml_shard_errors_total",
			"Tuples that failed at the shard backend.", s.Errors, lab)
		g.Gauge("exacml_shard_queue_depth",
			"Tuples queued or draining on a shard.", float64(s.QueueDepth), lab)
		g.Gauge("exacml_shard_queue_capacity",
			"Shard queue capacity.", float64(s.QueueCap), lab)
		healthy := 0.0
		if s.Healthy {
			healthy = 1
		}
		g.Gauge("exacml_shard_healthy",
			"Whether the shard backend is believed reachable (1) or down (0).", healthy, lab)
	}
	for _, row := range st.Streams {
		labs := []telemetry.Label{telemetry.L("stream", row.Stream), telemetry.L("class", row.Class)}
		g.Counter("exacml_stream_offered_total",
			"Tuples offered to a stream.", row.Offered, labs...)
		g.Counter("exacml_stream_shed_total",
			"Tuples shed by the stream's token-bucket quota.", row.Shed, labs...)
		g.Counter("exacml_stream_dropped_total",
			"Tuples dropped for a stream (quota sheds plus policy drops).", row.Dropped, labs...)
		g.Counter("exacml_stream_ingested_total",
			"Tuples ingested for a stream.", row.Ingested, labs...)
		g.Counter("exacml_stream_errors_total",
			"Tuples errored for a stream.", row.Errors, labs...)
		g.Counter("exacml_stream_reconfigured_total",
			"Live admission reconfigurations applied to a stream.", row.Reconfigured, labs...)
	}
	for _, c := range st.Classes {
		lab := telemetry.L("class", c.Class)
		g.Counter("exacml_class_offered_total",
			"Tuples offered, by priority class.", c.Offered, lab)
		g.Counter("exacml_class_dropped_total",
			"Tuples dropped, by priority class.", c.Dropped, lab)
		g.Counter("exacml_class_ingested_total",
			"Tuples ingested, by priority class.", c.Ingested, lab)
	}
	for _, r := range rt.replRoutes() {
		for _, l := range r.repl.lag() {
			labs := []telemetry.Label{
				telemetry.L("stream", r.name),
				telemetry.L("shard", strconv.Itoa(l.Shard)),
			}
			g.Gauge("exacml_replica_lag",
				"Accepted tuples a follower replica has not yet acknowledged.",
				float64(l.Lag), labs...)
			g.Counter("exacml_replica_gap_total",
				"Tuples a follower permanently missed because the bounded "+
					"replication log trimmed past its position.", l.Gaps, labs...)
			g.Counter("exacml_replica_ship_errors_total",
				"Replication ship attempts that failed in transport.", l.Errors, labs...)
			g.Counter("exacml_replica_resyncs_total",
				"Replication replies that put a follower somewhere its last "+
					"acknowledged ship did not leave it, plus stale results dropped.", l.Resyncs, labs...)
		}
	}
}

// count bumps an event counter on the runtime's registry (no-op when
// telemetry is off; the nil registry tolerates every call).
func (rt *Runtime) count(name, help string, labels ...telemetry.Label) {
	rt.reg.Counter(name, help, labels...).Inc()
}

// Health reports nil when every shard backend is believed reachable,
// or the first shard's failure; the ops listener's /readyz endpoint is
// wired to it.
func (rt *Runtime) Health() error {
	for i, s := range rt.shards {
		if err := s.failedErr(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if !s.be.Healthy() {
			return fmt.Errorf("shard %d (%s): unhealthy", i, s.be.Kind())
		}
	}
	return nil
}

// NumShards reports the shard count.
func (rt *Runtime) NumShards() int { return len(rt.shards) }

// Backend exposes shard i's backend through the ShardBackend
// interface. (The former Shard accessor returning the raw *dsms.Engine
// is gone: callers that need the in-process engine — tests, mostly —
// can type-assert to *LocalBackend and use its Engine method.)
func (rt *Runtime) Backend(i int) ShardBackend { return rt.shards[i].be }

func hashString(s string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	return h.Sum32()
}

// hashValue hashes a partition-key value without allocating.
func hashValue(v stream.Value) uint32 {
	switch v.Type() {
	case stream.TypeString:
		return hashString(v.Str())
	case stream.TypeDouble:
		return mix64(math.Float64bits(v.Double()))
	case stream.TypeInt:
		return mix64(uint64(v.Int()))
	case stream.TypeTimestamp:
		return mix64(uint64(v.Millis()))
	case stream.TypeBool:
		if v.Bool() {
			return 1
		}
		return 0
	}
	return 0
}

// mix64 folds a 64-bit pattern into a well-distributed 32-bit hash
// (splitmix64 finalizer).
func mix64(x uint64) uint32 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x ^ x>>32)
}

// reserveStream claims a stream name before the backend RPCs, so
// concurrent registrations cannot race while the runtime lock is NOT
// held across the (possibly remote) CreateStream calls.
func (rt *Runtime) reserveStream(key, name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return errClosed
	}
	if _, dup := rt.routes[key]; dup {
		return fmt.Errorf("runtime: stream %q already exists", name)
	}
	if rt.pending[key] {
		return fmt.Errorf("runtime: stream %q already exists", name)
	}
	rt.pending[key] = true
	return nil
}

// commitStream installs a reserved stream's route; it reports whether
// the runtime closed while the backends were registering (the caller
// then rolls the backend streams back).
func (rt *Runtime) commitStream(key string, r *route) (closed bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.pending, key)
	if rt.closed {
		return true
	}
	rt.routes[key] = r
	return false
}

// abortStream releases a reservation after a failed registration.
func (rt *Runtime) abortStream(key string) {
	rt.mu.Lock()
	delete(rt.pending, key)
	rt.mu.Unlock()
}

// CreateStream registers an input stream on the shard selected by the
// hash of its name. Options attach a priority class (WithClass) and a
// token-bucket quota (WithQuota); the default is class Normal,
// unlimited.
func (rt *Runtime) CreateStream(name string, schema *stream.Schema, opts ...StreamOption) error {
	if name == "" || schema == nil {
		return fmt.Errorf("runtime: stream needs a name and a schema")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return err
	}
	key := strings.ToLower(name)
	si := int(hashString(key) % uint32(len(rt.shards)))
	if err := rt.reserveStream(key, name); err != nil {
		return err
	}
	if err := rt.shards[si].be.CreateStream(name, schema); err != nil {
		rt.abortStream(key)
		return err
	}
	r := &route{
		name: name, schema: schema, keyIdx: -1, shard: si,
		counters: &streamCounters{},
	}
	r.failTo.Store(-1)
	r.adm.Store(newAdmissionState(cfg))
	// Replication: materialize the stream on the next Replication-1
	// shard slots and start the asynchronous shippers.
	if rt.opts.Replication > 1 {
		for d := 1; d < rt.opts.Replication; d++ {
			fi := (si + d) % len(rt.shards)
			if err := rt.shards[fi].be.CreateStream(name, schema); err != nil {
				for _, done := range r.replicas {
					_ = rt.shards[done].be.DropStream(name)
				}
				_ = rt.shards[si].be.DropStream(name)
				rt.abortStream(key)
				return fmt.Errorf("runtime: replica shard %d: %w", fi, err)
			}
			r.replicas = append(r.replicas, fi)
		}
		r.repl = newReplicator(name, rt.opts.ReplicationLog)
		for _, fi := range r.replicas {
			r.repl.join(fi, rt.shards[fi].be)
		}
	}
	if rt.commitStream(key, r) {
		r.repl.close()
		for _, fi := range r.replicas {
			_ = rt.shards[fi].be.DropStream(name)
		}
		_ = rt.shards[si].be.DropStream(name)
		return errClosed
	}
	rt.noteStreamCreated(name, schema, "", cfg)
	return nil
}

// CreatePartitionedStream registers an input stream on every shard;
// tuples are routed by the hash of the named key field, so all tuples
// with the same key value land on the same shard (and therefore see
// per-key FIFO order and per-key window semantics).
func (rt *Runtime) CreatePartitionedStream(name string, schema *stream.Schema, keyField string, opts ...StreamOption) error {
	if name == "" || schema == nil {
		return fmt.Errorf("runtime: stream needs a name and a schema")
	}
	if strings.TrimSpace(keyField) == "" {
		return fmt.Errorf("runtime: partitioned stream %q needs a non-empty key field", name)
	}
	idx, _, ok := schema.Lookup(keyField)
	if !ok {
		return fmt.Errorf("runtime: partition key %q is not a field of stream %q", keyField, name)
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return err
	}
	key := strings.ToLower(name)
	if err := rt.reserveStream(key, name); err != nil {
		return err
	}
	r := &route{
		name: name, schema: schema, keyIdx: idx, shard: -1,
		counters: &streamCounters{},
		stampA:   make([]atomic.Uint64, len(rt.shards)),
	}
	r.failTo.Store(-1)
	r.adm.Store(newAdmissionState(cfg))
	if rt.opts.Replication > 1 {
		if err := rt.createPartitionedReplicated(key, r, cfg); err != nil {
			return err
		}
		rt.noteStreamCreated(name, schema, keyField, cfg)
		return nil
	}
	// The runtime lock is not held across the per-shard RPCs (remote
	// backends may be slow or redialing); the reservation keeps the
	// name exclusive meanwhile.
	for i, s := range rt.shards {
		if err := s.be.CreateStream(name, schema); err != nil {
			for j := 0; j < i; j++ {
				_ = rt.shards[j].be.DropStream(name)
			}
			rt.abortStream(key)
			return err
		}
	}
	if rt.commitStream(key, r) {
		for _, s := range rt.shards {
			_ = s.be.DropStream(name)
		}
		return errClosed
	}
	rt.noteStreamCreated(name, schema, keyField, cfg)
	return nil
}

// subRouteName names partition p's internal sub-route of a replicated
// partitioned stream.
func subRouteName(name string, p int) string {
	return fmt.Sprintf("%s@%d", name, p)
}

// createPartitionedReplicated finishes registering a partitioned stream
// under Replication > 1: instead of one engine stream per shard, each
// partition p becomes an internal replicated sub-route "name@p" — the
// engine stream lives on shard p plus the next Replication-1 slots,
// with its own replication log and shippers — so a partition survives
// its primary shard's death by follower promotion, exactly like a
// replicated single-shard stream. The sub-routes share the parent's
// admission counters (publish admission happens once, on the parent)
// and are hidden from the user-facing stream listing.
func (rt *Runtime) createPartitionedReplicated(key string, r *route, cfg StreamConfig) error {
	undo := func(subs []*route) {
		for _, sub := range subs {
			sub.repl.close()
			if rt.shards[sub.shard].failedErr() == nil {
				_ = rt.shards[sub.shard].be.DropStream(sub.name)
			}
			for _, fi := range sub.replicas {
				if rt.shards[fi].failedErr() == nil {
					_ = rt.shards[fi].be.DropStream(sub.name)
				}
			}
		}
	}
	subs := make([]*route, 0, len(rt.shards))
	for p := range rt.shards {
		sname := subRouteName(r.name, p)
		sub := &route{
			name: sname, schema: r.schema, keyIdx: -1, shard: p,
			counters: r.counters, internal: true,
		}
		sub.failTo.Store(-1)
		sub.adm.Store(newAdmissionState(cfg))
		if err := rt.shards[p].be.CreateStream(sname, r.schema); err != nil {
			undo(subs)
			rt.abortStream(key)
			return fmt.Errorf("runtime: partition %d: %w", p, err)
		}
		for d := 1; d < rt.opts.Replication; d++ {
			fi := (p + d) % len(rt.shards)
			if err := rt.shards[fi].be.CreateStream(sname, r.schema); err != nil {
				_ = rt.shards[p].be.DropStream(sname)
				for _, done := range sub.replicas {
					_ = rt.shards[done].be.DropStream(sname)
				}
				undo(subs)
				rt.abortStream(key)
				return fmt.Errorf("runtime: partition %d replica shard %d: %w", p, fi, err)
			}
			sub.replicas = append(sub.replicas, fi)
		}
		sub.repl = newReplicator(sname, rt.opts.ReplicationLog)
		for _, fi := range sub.replicas {
			sub.repl.join(fi, rt.shards[fi].be)
		}
		subs = append(subs, sub)
	}
	r.subs = subs
	rt.mu.Lock()
	delete(rt.pending, key)
	closed := rt.closed
	if !closed {
		rt.routes[key] = r
		for _, sub := range subs {
			rt.routes[strings.ToLower(sub.name)] = sub
		}
	}
	rt.mu.Unlock()
	if closed {
		undo(subs)
		return errClosed
	}
	return nil
}

// DropStream removes a stream from its shard(s), withdrawing every
// query reading from it.
func (rt *Runtime) DropStream(name string) error {
	key := strings.ToLower(name)
	rt.mu.Lock()
	r, ok := rt.routes[key]
	if !ok || r.internal {
		rt.mu.Unlock()
		return fmt.Errorf("runtime: unknown stream %q", name)
	}
	delete(rt.routes, key)
	for _, sub := range r.subs {
		delete(rt.routes, strings.ToLower(sub.name))
	}
	var gone []*depState
	for id, ds := range rt.deps {
		if ds.r == r && id == ds.id {
			gone = append(gone, ds)
		}
	}
	for _, ds := range gone {
		rt.forgetLocked(ds)
	}
	rt.mu.Unlock()
	// The control-plane removal is committed at this point regardless of
	// how the backend drops below fare (mirroring the deps/routes maps).
	rt.noteStreamDropped(r.name)
	for _, ds := range gone {
		_ = rt.teardown(ds)
	}
	// Downed shards are skipped throughout: their streams died with the
	// process, and a conn error would make an otherwise-complete drop
	// look failed (mirroring teardown).
	var err error
	if r.keyIdx < 0 {
		r.repl.close()
		if rt.shards[r.shard].failedErr() == nil {
			err = rt.shards[r.shard].be.DropStream(r.name)
		}
		for _, fi := range r.replicas {
			if rt.shards[fi].failedErr() == nil {
				_ = rt.shards[fi].be.DropStream(r.name)
			}
		}
		return err
	}
	if r.subs != nil {
		// Replicated partitioned: tear down each partition's sub-route
		// (replicator, primary copy, follower copies).
		for _, sub := range r.subs {
			sub.repl.close()
			for _, i := range append([]int{sub.shard}, sub.replicas...) {
				if rt.shards[i].failedErr() == nil {
					if derr := rt.shards[i].be.DropStream(sub.name); derr != nil && err == nil {
						err = derr
					}
				}
			}
		}
		return err
	}
	for _, s := range rt.shards {
		if s.failedErr() != nil {
			continue
		}
		if derr := s.be.DropStream(r.name); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

func (rt *Runtime) routeFor(name string) (*route, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if rt.closed {
		return nil, errClosed
	}
	r, ok := rt.routes[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown stream %q", name)
	}
	return r, nil
}

// StreamSchema implements the PEP-facing engine surface.
func (rt *Runtime) StreamSchema(name string) (*stream.Schema, error) {
	r, err := rt.routeFor(name)
	if err != nil {
		return nil, err
	}
	return r.schema, nil
}

// StreamAdmission reports a stream's current admission configuration
// (priority class and token-bucket quota), as registered or as last
// swapped in by Reconfigure.
func (rt *Runtime) StreamAdmission(name string) (StreamConfig, error) {
	r, err := rt.routeFor(name)
	if err != nil {
		return StreamConfig{}, err
	}
	return r.adm.Load().cfg, nil
}

// Reconfigure atomically replaces a stream's priority class and
// token-bucket quota without re-registering it, returning the previous
// configuration. The swap is a single pointer exchange: a batch in
// flight finishes under the configuration it loaded, the next batch
// publishes under the new one — which is also when the stream's tuples
// start entering their new per-class ring (tuples already queued keep
// the class they were admitted under, preserving eviction fairness for
// work the old class already paid for). The quota bucket starts full
// (Burst tokens), so a demotion takes effect within one burst. The
// per-stream counters survive the swap untouched, keeping
//
//	offered == ingested + dropped + errors
//
// intact across the transition; the stream's Stats row reports the new
// class/quota and an incremented Reconfigured count. The runtime is the
// only admission point, so the swap is the whole demotion: every shard,
// local or remote, ingests only what the new state admits.
func (rt *Runtime) Reconfigure(name string, cfg StreamConfig) (StreamConfig, error) {
	return rt.reconfigure(name, cfg, true)
}

// ReconfigureEphemeral is Reconfigure minus the catalog record: the
// swap is applied live but NOT persisted as the stream's configured
// admission state. The governor drives demotions and cooldown restores
// through it — a demotion is re-derived from the audit chain on boot,
// so recording it in the catalog would bake it in past its cooldown.
func (rt *Runtime) ReconfigureEphemeral(name string, cfg StreamConfig) (StreamConfig, error) {
	return rt.reconfigure(name, cfg, false)
}

func (rt *Runtime) reconfigure(name string, cfg StreamConfig, durable bool) (StreamConfig, error) {
	norm, err := normalizeConfig(cfg)
	if err != nil {
		return StreamConfig{}, err
	}
	r, err := rt.routeFor(name)
	if err != nil {
		return StreamConfig{}, err
	}
	old := r.adm.Swap(newAdmissionState(norm))
	r.reconfigures.Add(1)
	if durable {
		rt.noteStreamReconfigured(r.name, norm)
	}
	return old.cfg, nil
}

// ShardForStream reports the shard slot a non-partitioned stream of
// the given name is (or would be) placed on; benchmarks use it to lay
// streams out across specific backends.
func (rt *Runtime) ShardForStream(name string) int {
	return int(hashString(strings.ToLower(name)) % uint32(len(rt.shards)))
}

// Streams lists registered stream names, sorted.
func (rt *Runtime) Streams() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]string, 0, len(rt.routes))
	for _, r := range rt.routes {
		if r.internal {
			continue
		}
		out = append(out, r.name)
	}
	sort.Strings(out)
	return out
}

// Publish publishes a single tuple (a batch of one).
func (rt *Runtime) Publish(streamName string, t stream.Tuple) error {
	one := [1]stream.Tuple{t}
	_, err := rt.PublishBatch(streamName, one[:])
	return err
}

// PublishBatch publishes a batch of tuples to a stream, applying the
// stream's quota and then the backpressure policy per shard. The
// returned count is the number of tuples admitted to shard queues; see
// PublishBatchVerdict for the full admission breakdown.
func (rt *Runtime) PublishBatch(streamName string, ts []stream.Tuple) (int, error) {
	v, err := rt.PublishBatchVerdict(streamName, ts)
	return v.Accepted, err
}

// PublishBatchVerdict publishes a batch of tuples to a stream and
// reports the admission verdict. Tuples are validated against the
// stream schema first — an invalid tuple rejects the whole batch
// synchronously (counted in Stats().Rejected) so publishers learn about
// schema violations immediately rather than from shard counters. Valid
// tuples then pass the stream's token-bucket quota: tuples beyond the
// available tokens are shed (Verdict.Shed) without reaching any shard,
// admitting the batch prefix so stream order is preserved. The
// remainder is admitted under the backpressure policy: with Block,
// streams at or above Options.BlockClass wait for space while lower
// classes are shed; DropNewest sheds the incoming tuple unless a
// lower-class queued tuple can be evicted instead; DropOldest evicts
// the oldest queued tuple of the lowest class at or below the incoming
// one.
//
// Admitted tuples are copied into the shard queue, so the caller may
// reuse ts once the call returns. A publish that finds a shard's queue
// idle starts a goroutine that drains it and ends once it is empty; the
// call does not wait for the engine. Flush does.
func (rt *Runtime) PublishBatchVerdict(streamName string, ts []stream.Tuple) (PublishVerdict, error) {
	if len(ts) == 0 {
		return PublishVerdict{}, nil
	}
	r, err := rt.routeFor(streamName)
	if err != nil {
		return PublishVerdict{}, err
	}
	if r.internal {
		return PublishVerdict{}, fmt.Errorf("runtime: stream %q is an internal partition sub-route; publish to its parent stream", streamName)
	}
	for i := range ts {
		if err := ts[i].Conforms(r.schema); err != nil {
			rt.rejected.Add(uint64(len(ts)))
			return PublishVerdict{}, fmt.Errorf("runtime: tuple %d: %w", i, err)
		}
	}
	// One atomic load pins the batch to a single admission state, so a
	// concurrent Reconfigure flips class and quota between batches,
	// never inside one.
	ad := r.adm.Load()
	v := PublishVerdict{Offered: len(ts)}
	r.counters.offered.Add(uint64(len(ts)))
	if ad.bucket != nil {
		grant := ad.bucket.Take(len(ts))
		v.Shed = len(ts) - grant
		if v.Shed > 0 {
			r.counters.shed.Add(uint64(v.Shed))
			ts = ts[:grant]
		}
		if grant == 0 {
			return v, nil
		}
	}
	// Replicated streams stamp arrival times at publish admission: the
	// engine's seal preserves non-zero arrivals, so the primary and
	// every follower see identical timestamps and their time-window
	// aggregates stay bit-compatible. (The stamp is written into the
	// caller's tuples: a published batch is the runtime's to mutate.)
	if r.repl != nil {
		now := coarsetime.NowMillis()
		for i := range ts {
			if ts[i].ArrivalMillis == 0 {
				ts[i].ArrivalMillis = now
			}
		}
	}
	// Sample the publish tracer once per batch (nil tracer or unsampled
	// batch → nil span, and every stamp below is a no-op). The span's
	// queue-wait stage opens here and travels with the batch's first
	// admitted entry to whoever drains it.
	sp := rt.tracer.Sample()
	sp.Begin(telemetry.StageQueueWait)
	hdr := entry{stream: r.name, class: ad.cfg.Class, sc: r.counters, rep: r.repl, sp: sp}
	if r.keyIdx < 0 {
		n, err := rt.shards[r.primaryShard()].enqueue(hdr, ts)
		v.Accepted = n
		return v, err
	}
	// Partitioned: split the batch by key hash, preserving the relative
	// order of tuples bound for the same shard. The key is coerced to
	// its schema type first so widening-equal values (IntValue(5) vs
	// DoubleValue(5)) hash to the same shard.
	//
	// Every admitted tuple is stamped with the next dense global
	// sequence position g (in admission order) and its arrival time is
	// fixed here — the engine seal preserves both — so all partitions,
	// and every replica of a partition, see identical provenance, and
	// the merge stage can align partial aggregates from different
	// shards into one global answer. The stamp lock is held from
	// stamping through the bucket enqueues: each partition's queue must
	// receive its tuples in strictly increasing g order. That
	// serializes concurrent publishes to one partitioned route at the
	// admission step; the shards drain their buckets in parallel.
	keyType := r.schema.Field(r.keyIdx).Type
	var firstErr error
	r.stampMu.Lock()
	defer r.stampMu.Unlock()
	if r.buckets == nil {
		r.buckets = make([][]stream.Tuple, len(rt.shards))
	}
	buckets := r.buckets
	for si := range buckets {
		buckets[si] = buckets[si][:0]
	}
	now := coarsetime.NowMillis()
	g := r.stampG.Load()
	for i := range ts {
		if ts[i].ArrivalMillis == 0 {
			ts[i].ArrivalMillis = now
		}
		g++
		ts[i].Seq = g
		kv := ts[i].Values[r.keyIdx]
		if !kv.IsNull() && kv.Type() != keyType {
			if cv, err := kv.CoerceTo(keyType); err == nil {
				kv = cv
			}
		}
		si := int(hashValue(kv) % uint32(len(rt.shards)))
		buckets[si] = append(buckets[si], ts[i])
	}
	// Publish the batch's frontier whole before any tuple of it can
	// surface in a shard watermark: every A_p first, then G (see the
	// route's field comment). A bucket the shard then refuses leaves its
	// positions permanently unwatermarked — the merge stage stalls on
	// such holes until its buffer bound forces release.
	for si, bucket := range buckets {
		if len(bucket) > 0 {
			r.stampA[si].Store(bucket[len(bucket)-1].Seq)
		}
	}
	r.stampG.Store(g)
	// A failed shard refuses its bucket (accounted as errors); the
	// remaining buckets must still be offered to their shards or the
	// per-stream accounting would leak the skipped tuples. The first
	// error is reported after every bucket has been dispatched.
	for si, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		// The span rides with the first dispatched bucket; the others go
		// untraced (per-bucket spans would multiply one sampled publish
		// into shard-count traces).
		tgt := si
		if r.subs != nil {
			// Replicated partition: the bucket lands on the sub-route's
			// current primary and feeds its replication log. The record
			// source stays the logical partition — whichever shard hosts
			// it after failover serves the same "name@p" stream.
			sub := r.subs[si]
			hdr.stream, hdr.rep, tgt = sub.name, sub.repl, sub.primaryShard()
		}
		n, err := rt.shards[tgt].enqueue(hdr, bucket)
		hdr.sp = nil
		v.Accepted += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
		clear(bucket) // let go of the caller's values
	}
	return v, firstErr
}

// Flush blocks until every queued tuple has been drained into, and so
// processed by, the engines, making concurrent publish tests and
// benchmarks deterministic. For replicated streams it additionally
// waits until every follower on a healthy shard has acknowledged, and
// so processed, the full log, so a post-Flush inspection sees
// identical primary and replica state.
func (rt *Runtime) Flush() {
	for _, s := range rt.shards {
		s.flush()
	}
	healthy := func(i int) bool { return rt.shards[i].failedErr() == nil }
	for _, r := range rt.replRoutes() {
		r.repl.waitIdle(healthy)
	}
}

// ReplicaLag reports a replicated stream's follower positions (empty
// for unknown or unreplicated streams).
func (rt *Runtime) ReplicaLag(streamName string) []ReplicaLag {
	r, err := rt.routeFor(streamName)
	if err != nil || r.repl == nil {
		return nil
	}
	return r.repl.lag()
}

// PauseDrain stops every shard's drain after its current batch and
// returns once that batch is done: publishes keep being admitted (and
// shed, per policy) into a frozen queue, and no drain starts until
// ResumeDrain. Tests and maintenance windows use this to saturate
// queues deterministically.
func (rt *Runtime) PauseDrain() {
	for _, s := range rt.shards {
		s.pause()
	}
}

// ResumeDrain lifts PauseDrain and starts a drain of what queued
// meanwhile; Flush waits for it.
func (rt *Runtime) ResumeDrain() {
	for _, s := range rt.shards {
		s.resume()
	}
}

// Stats snapshots per-shard queue depths, accounting counters and
// throughput, plus the per-stream and per-class admission counters.
// After a Flush, every row satisfies
//
//	offered == ingested + dropped + errors
//
// where a stream's (and class's) Dropped includes both policy drops and
// quota sheds; Shed breaks out the quota-only portion.
func (rt *Runtime) Stats() metrics.RuntimeStats {
	elapsed := time.Since(rt.start)
	st := metrics.RuntimeStats{
		Engine:   rt.name,
		Elapsed:  elapsed,
		Rejected: rt.rejected.Load(),
		Shards:   make([]metrics.ShardStat, 0, len(rt.shards)),
	}
	sec := elapsed.Seconds()
	for _, s := range rt.shards {
		st.Shards = append(st.Shards, s.snapshot(sec))
	}

	// Internal sub-routes share their parent's counters; listing them
	// would multiply the parent's row per partition.
	routes := rt.routeList(func(r *route) bool { return !r.internal })
	byClass := map[string]*metrics.ClassStat{}
	for _, r := range routes {
		shed := r.counters.shed.Load()
		ad := r.adm.Load()
		row := metrics.StreamStat{
			Stream: r.name,
			Class:  ad.cfg.Class.String(),
			Rate:   ad.cfg.Rate,
			Burst:  ad.cfg.Burst, // normalized; matches the bucket

			Reconfigured: r.reconfigures.Load(),

			Offered:  r.counters.offered.Load(),
			Shed:     shed,
			Dropped:  r.counters.dropped.Load() + shed,
			Ingested: r.counters.ingested.Load(),
			Errors:   r.counters.errors.Load(),
		}
		if sec > 0 {
			row.Throughput = float64(row.Ingested) / sec
		}
		st.Streams = append(st.Streams, row)
		c, ok := byClass[row.Class]
		if !ok {
			c = &metrics.ClassStat{Class: row.Class}
			byClass[row.Class] = c
		}
		c.Offered += row.Offered
		c.Shed += row.Shed
		c.Dropped += row.Dropped
		c.Ingested += row.Ingested
		c.Errors += row.Errors
	}
	sort.Slice(st.Streams, func(i, j int) bool { return st.Streams[i].Stream < st.Streams[j].Stream })
	for c := Class(0); c < numClasses; c++ {
		if row, ok := byClass[c.String()]; ok {
			st.Classes = append(st.Classes, *row)
		}
	}
	return st
}

// QueryCount sums the parts running on every shard backend (an
// unreachable one counts none).
func (rt *Runtime) QueryCount() int {
	n := 0
	for _, s := range rt.shards {
		names, _ := s.be.ListParts()
		n += len(names)
	}
	return n
}

// Close rejects further publishes, ends every query (its subscriptions
// close, and no shard keeps running it), drains what is already queued,
// and shuts every shard engine down.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	rt.mu.Unlock()
	for _, ds := range rt.depList() {
		_ = rt.teardown(ds)
	}
	// Stop replication shippers before the backends close underneath
	// them (a shipper racing a closing backend would just error-retry
	// until stopped, but stopping first is quieter).
	for _, r := range rt.replRoutes() {
		r.repl.close()
	}
	for _, s := range rt.shards {
		s.close()
	}
	// Closed backends post nothing more; an event still applying runs
	// against the closed shards and shippers.
	for i := range rt.shards {
		_ = rt.await(i, healthEvent{})
	}
}

// compile-time check that the runtime satisfies the engine surface the
// PEP needs (xacmlplus.StreamEngine is satisfied structurally; spelled
// out here to catch signature drift without importing xacmlplus).
var _ interface {
	StreamSchema(name string) (*stream.Schema, error)
	DeployScript(script string) (string, string, error)
	Withdraw(idOrHandle string) error
} = (*Runtime)(nil)
