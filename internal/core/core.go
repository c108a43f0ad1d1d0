// Package core is the top-level facade of the eXACML+ reproduction: it
// wires the sharded ingest runtime (a pool of stream-engine backends
// behind bounded queues), the XACML PDP and the XACML+ PEP into one
// Framework with a small, documented API. Boot is the only way
// cmd/exacmld constructs a server; examples, tools and tests start
// from New / NewWithOptions, which is Boot without a state dir.
//
// Options selects the topology (Shards in-process engines, or
// ShardAddrs naming a local engine or a remote dsmsd per slot — one
// remote slot is the paper's data server → stream engine deployment)
// and the ingest configuration (queue size, backpressure policy and
// its class threshold, replication). Streams register with
// RegisterStream / RegisterPartitionedStream and may carry a priority
// class and a token-bucket quota via runtime.WithClass /
// runtime.WithQuota, both swappable at runtime with Reconfigure.
// Options.Audit records every decision into a hash-chained
// accountability log, and Options.Governor starts the audit-fed
// governor that demotes abusive subjects' streams live (see
// internal/governor and docs/ACCOUNTABILITY.md). The TCP surfaces
// (data server, proxy, client) live in internal/server, internal/proxy
// and internal/client and sit on top of a Framework.
package core

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/durable"
	"repro/internal/governor"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

// Options tunes the ingest plane of a Framework. The zero value is the
// paper-faithful configuration: one engine shard, blocking
// backpressure.
type Options struct {
	// Shards is the number of engine shards (default 1). Ignored when
	// ShardAddrs is set.
	Shards int
	// ShardAddrs selects a backend per shard slot for mixed topologies:
	// each entry is a dsmsd host:port address for a remote shard, or ""
	// / "local" for an in-process engine (runtime.ParseShardAddrs reads
	// the CLI form). When non-empty its length is the shard count.
	ShardAddrs []runtime.BackendSpec
	// QueueSize is the per-shard publish queue capacity (default 4096).
	QueueSize int
	// Policy is the backpressure policy applied when a shard queue is
	// full: runtime.Block (default), runtime.DropNewest or
	// runtime.DropOldest.
	Policy runtime.Policy
	// BlockClass limits the Block policy to streams of this priority
	// class or above; lower classes are shed when a queue is full. The
	// default (runtime.BestEffort) blocks every stream.
	BlockClass runtime.Class
	// Replication places every single-shard stream on this many shards
	// (primary + Replication-1 asynchronously fed followers) and fails
	// queries over to the most caught-up follower when the primary's
	// shard dies. 0/1 disables replication; values above the shard
	// count are clamped.
	Replication int
	// Audit, when non-nil, records every PDP/PEP decision into the
	// given accountability log (equivalent to setting PEP.Audit after
	// construction, but available before the first request).
	Audit *audit.Log
	// Governor, when non-nil, starts the accountability governor over
	// the audit log: subjects accumulating deny/NR-violation decisions
	// have their bound streams' class demoted and quota tightened at
	// runtime, and restored after a cooldown (see internal/governor).
	// An in-memory audit log is created when Audit is nil, since the
	// governor cannot feed on decisions nobody records. Bind subjects
	// to their streams with Framework.Governor.Bind.
	Governor *governor.Config
	// Metrics, when non-nil, instruments the whole framework on the
	// given registry: runtime ingest counters and publish-path traces,
	// engine shard counters, PEP request-phase histograms, audit and
	// governor counters. Serve it with telemetry.ServeOps.
	Metrics *telemetry.Registry
	// TraceSampleEvery sets the publish-path trace sampling period in
	// tuples (rounded up to a power of two; default
	// runtime.DefaultTraceSampleEvery). Only meaningful with Metrics.
	TraceSampleEvery int
	// StateDir, when non-empty, makes the control plane durable (Boot
	// only): the audit chain is persisted as JSON lines, stream DDL and
	// deployed queries as crash-consistent catalog snapshots, and window
	// state as periodic checkpoints, all under this directory — and all
	// replayed into the framework on the next Boot. Mutually exclusive
	// with Audit (the durable manager owns the audit log's writer).
	StateDir string
	// CheckpointInterval is the period of the durable window
	// checkpointer (default 0 = only the final checkpoint taken at
	// Close). Only meaningful with StateDir.
	CheckpointInterval time.Duration
}

// Framework is an embedded eXACML+ instance: a sharded stream runtime
// plus the access-control plane over it.
type Framework struct {
	// Runtime is the sharded ingest plane fronting the shard backends
	// (in-process engines and/or remote dsmsd processes). It is also
	// the DSMS surface the PEP deploys against: schema lookups, script
	// deploys and withdrawals are routed to the shard owning the target
	// stream, so every registered stream is visible regardless of which
	// shard it landed on.
	Runtime *runtime.Runtime
	// PDP stores and evaluates XACML policies.
	PDP *xacml.PDP
	// PEP enforces decisions: obligations → query graphs, merging,
	// NR/PR analysis, single-access guard, graph management.
	PEP *xacmlplus.PEP
	// Audit is the accountability log every decision is recorded in
	// (nil unless Options.Audit or Options.Governor enabled it).
	Audit *audit.Log
	// Governor is the accountability governor (nil unless
	// Options.Governor enabled it).
	Governor *governor.Governor
	// Durable is the state-dir manager (nil unless Boot was called with
	// Options.StateDir).
	Durable *durable.Manager
}

// New creates a framework with a fresh single-shard runtime.
func New(name string) *Framework { return NewWithOptions(name, Options{}) }

// NewWithOptions creates a framework whose ingest plane is sharded and
// policed per opts. The PEP/PDP plane is identical regardless of the
// shard count: the runtime implements the engine surface the PEP
// deploys against. Options.StateDir is ignored here — use Boot for a
// durable control plane.
func NewWithOptions(name string, opts Options) *Framework {
	return newWithOptions(name, opts, nil)
}

// Boot is NewWithOptions plus the durable control plane: with
// Options.StateDir set it opens (and repairs) the state directory,
// continues the persisted audit chain, replays the catalog (streams,
// queries) and the window checkpoints into the fresh framework, feeds
// the audit history through the governor so demotions survive the
// restart, and starts the periodic checkpointer. Framework.Ready
// reports nil only once recovery has completed — serve it as the
// readiness probe. With or without StateDir, Boot then deletes the
// parts of the runtime's namespace that a dsmsd which outlived the
// previous process still runs but no restored query holds.
func Boot(name string, opts Options) (*Framework, error) {
	if opts.StateDir == "" {
		fw := NewWithOptions(name, opts)
		fw.Runtime.DeleteOrphanParts()
		return fw, nil
	}
	if opts.Audit != nil {
		return nil, fmt.Errorf("core: Options.Audit and Options.StateDir are mutually exclusive (the state dir owns the audit log)")
	}
	dm, err := durable.Open(opts.StateDir, opts.Metrics)
	if err != nil {
		return nil, err
	}
	opts.Audit = dm.Log()
	fw := newWithOptions(name, opts, dm.CatalogObserver())
	fw.Durable = dm
	if err := dm.Recover(fw.Runtime, fw.Governor, opts.CheckpointInterval); err != nil {
		fw.Close()
		return nil, err
	}
	fw.Runtime.DeleteOrphanParts()
	return fw, nil
}

func newWithOptions(name string, opts Options, catalog runtime.CatalogObserver) *Framework {
	// Resolve the audit log before the runtime exists: shard health
	// transitions are audited by the runtime itself (Kind "health").
	auditLog := opts.Audit
	if opts.Governor != nil && auditLog == nil {
		auditLog = audit.NewLog(nil)
	}
	rt := runtime.New(name, runtime.Options{
		Shards:           opts.Shards,
		Backends:         opts.ShardAddrs,
		QueueSize:        opts.QueueSize,
		Policy:           opts.Policy,
		BlockClass:       opts.BlockClass,
		Replication:      opts.Replication,
		Metrics:          opts.Metrics,
		TraceSampleEvery: opts.TraceSampleEvery,
		Audit:            auditLog,
		Catalog:          catalog,
	})
	pdp := xacml.NewPDP()
	fw := &Framework{
		Runtime: rt,
		PDP:     pdp,
		PEP:     xacmlplus.NewPEP(pdp, rt),
		Audit:   auditLog,
	}
	if opts.Governor != nil {
		// The governor's demotions and cooldown restores go through the
		// ephemeral reconfigure surface: they are re-derived from the
		// audit chain on boot, so persisting them in the durable catalog
		// would bake a temporary demotion into the restored base config.
		fw.Governor = governor.New(ephemeralAdmission{rt}, fw.Audit, *opts.Governor)
	}
	if fw.Audit != nil {
		fw.PEP.Audit = fw.Audit
	}
	if opts.Metrics != nil {
		fw.PEP.EnableTelemetry(opts.Metrics)
		if fw.Audit != nil {
			fw.Audit.EnableTelemetry(opts.Metrics)
		}
		if fw.Governor != nil {
			fw.Governor.EnableTelemetry(opts.Metrics)
		}
	}
	return fw
}

// ephemeralAdmission routes the governor's admission swaps around the
// durable catalog (see newWithOptions).
type ephemeralAdmission struct{ rt *runtime.Runtime }

func (e ephemeralAdmission) StreamAdmission(name string) (runtime.StreamConfig, error) {
	return e.rt.StreamAdmission(name)
}

func (e ephemeralAdmission) Reconfigure(name string, cfg runtime.StreamConfig) (runtime.StreamConfig, error) {
	return e.rt.ReconfigureEphemeral(name, cfg)
}

// Ready reports nil once the framework can serve: the runtime's shards
// are healthy and — for a Boot-ed framework — durable recovery has
// completed. Serve it as the /readyz probe.
func (f *Framework) Ready() error {
	if err := f.Durable.Ready(); err != nil {
		return err
	}
	return f.Runtime.Health()
}

// Close stops the governor, then the durable manager (final window
// checkpoint + audit sync — the runtime must still be alive for the
// checkpoint's quiesce fence), then shuts down the runtime, all engine
// shards and all continuous queries.
func (f *Framework) Close() {
	if f.Governor != nil {
		f.Governor.Close()
	}
	if f.Durable != nil {
		_ = f.Durable.Close()
	}
	f.Runtime.Close()
}

// RegisterStream declares a data-owner's stream, placed on one shard by
// the hash of its name. Options attach a priority class and a
// token-bucket quota (runtime.WithClass, runtime.WithQuota).
func (f *Framework) RegisterStream(name string, schema *stream.Schema, opts ...runtime.StreamOption) error {
	return f.Runtime.CreateStream(name, schema, opts...)
}

// RegisterPartitionedStream declares a stream whose tuples are spread
// across all shards by the hash of the named key field; continuous
// queries over it run on every shard with merged output.
func (f *Framework) RegisterPartitionedStream(name string, schema *stream.Schema, keyField string, opts ...runtime.StreamOption) error {
	return f.Runtime.CreatePartitionedStream(name, schema, keyField, opts...)
}

// LoadPolicy parses and activates a policy document; reloading an
// existing id withdraws the old version's query graphs first (§3.3).
func (f *Framework) LoadPolicy(policyXML []byte) (string, error) {
	pol, err := xacml.ParsePolicy(policyXML)
	if err != nil {
		return "", err
	}
	if _, err := f.PEP.UpdatePolicy(pol); err != nil {
		return "", err
	}
	return pol.PolicyID, nil
}

// AddPolicy activates an already-built policy object.
func (f *Framework) AddPolicy(pol *xacml.Policy) error {
	if err := pol.Validate(); err != nil {
		return err
	}
	_, err := f.PEP.UpdatePolicy(pol)
	return err
}

// RemovePolicy removes a policy and withdraws every query graph it
// spawned, returning the withdrawn query ids.
func (f *Framework) RemovePolicy(policyID string) ([]string, error) {
	return f.PEP.RemovePolicy(policyID)
}

// Request asks for a stream as (subject, stream, action) with an
// optional customised query. On Permit with no NR/PR conflict, the
// response carries the live stream handle.
func (f *Framework) Request(subject, streamName, action string, userQuery *xacmlplus.UserQuery) (*xacmlplus.AccessResponse, error) {
	return f.PEP.HandleRequest(xacml.NewRequest(subject, streamName, action), userQuery)
}

// Subscribe attaches a consumer to a granted stream handle.
func (f *Framework) Subscribe(handle string) (*runtime.Subscription, error) {
	return f.Runtime.Subscribe(handle)
}

// Publish appends a tuple to a registered stream via the shard queues;
// all continuous queries over it are applied by the shard's drain.
func (f *Framework) Publish(streamName string, t stream.Tuple) error {
	return f.Runtime.Publish(streamName, t)
}

// PublishBatch appends a batch of tuples in one call, returning how
// many were accepted under the configured backpressure policy.
func (f *Framework) PublishBatch(streamName string, ts []stream.Tuple) (int, error) {
	return f.Runtime.PublishBatch(streamName, ts)
}

// PublishBatchVerdict appends a batch of tuples and reports the full
// admission verdict (offered / accepted / quota-shed).
func (f *Framework) PublishBatchVerdict(streamName string, ts []stream.Tuple) (runtime.PublishVerdict, error) {
	return f.Runtime.PublishBatchVerdict(streamName, ts)
}

// Reconfigure atomically swaps a registered stream's priority class
// and token-bucket quota without re-registering it, returning the
// previous configuration (see runtime.Reconfigure for the semantics).
func (f *Framework) Reconfigure(streamName string, cfg runtime.StreamConfig) (runtime.StreamConfig, error) {
	return f.Runtime.Reconfigure(streamName, cfg)
}

// StreamAdmission reports a stream's current class/quota.
func (f *Framework) StreamAdmission(streamName string) (runtime.StreamConfig, error) {
	return f.Runtime.StreamAdmission(streamName)
}

// Flush blocks until all published tuples have been processed.
func (f *Framework) Flush() { f.Runtime.Flush() }

// Stats snapshots the ingest runtime (per-shard queue depth,
// throughput, drop counters).
func (f *Framework) Stats() metrics.RuntimeStats { return f.Runtime.Stats() }

// Release gives up a user's grant on a stream.
func (f *Framework) Release(subject, streamName string) error {
	_, err := f.PEP.Release(subject, streamName)
	return err
}

// RequireHandle is a convenience that fails unless the response issued
// a handle, formatting warnings into the error.
func RequireHandle(resp *xacmlplus.AccessResponse, err error) (*xacmlplus.AccessResponse, error) {
	if err != nil {
		return resp, err
	}
	if !resp.Granted() {
		return resp, fmt.Errorf("core: access not granted (decision=%s verdict=%s warnings=%v)",
			resp.Decision, resp.Verdict, resp.Warnings)
	}
	return resp, nil
}
