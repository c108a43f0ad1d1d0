package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/dsms"
	"repro/internal/protocol"
	"repro/internal/stream"
	"repro/internal/streamql"
	"repro/internal/telemetry"
)

// BackendDeployment describes one continuous query running on one
// shard backend.
type BackendDeployment struct {
	// ID is the backend-unique query identifier.
	ID string
	// Handle is the URI under which the output stream is served.
	Handle string
	// OutputSchema is the schema of emitted tuples.
	OutputSchema *stream.Schema
}

// BackendSubscription is a live attachment to a query's output on one
// shard backend.
type BackendSubscription interface {
	// Tuples delivers the query's output; the channel is closed when
	// the subscription (or its backend connection) dies.
	Tuples() <-chan stream.Tuple
	// Dropped counts tuples discarded because the consumer lagged.
	Dropped() uint64
	// Close detaches the subscription.
	Close()
}

// DeployRequest carries a continuous query in both of its forms: the
// compiled graph (what in-process engines execute directly) and the
// StreamSQL source (what crosses the wire to a remote backend). The
// runtime's script path fills both; the graph-only path leaves Script
// empty, which remote backends reject.
//
// Stage, when set, deploys the query as one shard's part of a
// cross-shard re-aggregation plan: the pipeline emits stage records
// (partial aggregates or relayed rows, plus watermarks) for the
// runtime's merge stage instead of finished output tuples. It is
// carried outside the script because StreamSQL has no stage syntax —
// backends apply it to the (compiled) graph before deploying.
type DeployRequest struct {
	Graph  *dsms.QueryGraph
	Script string
	Stage  *dsms.StageSpec
}

// ShardBackend is the engine surface one shard slot of the runtime
// needs: stream DDL, the batch ingest the shard worker ships, the
// xacmlplus.StreamEngine deploy/withdraw surface (via
// Deploy/Withdraw), subscriptions, and lifecycle. LocalBackend adapts
// an in-process dsms.Engine; RemoteBackend fronts a dsmsd process over
// the socket protocol, so a runtime can mix in-process and remote
// shards in one topology.
type ShardBackend interface {
	// Kind names the backend flavour for stats ("local", "remote(addr)").
	Kind() string
	// CreateStream registers an input stream.
	CreateStream(name string, schema *stream.Schema) error
	// DropStream removes a stream, withdrawing queries reading from it.
	DropStream(name string) error
	// StreamSchema returns a registered stream's schema.
	StreamSchema(name string) (*stream.Schema, error)
	// IngestBatch ships a schema-checked batch into the engine (the
	// shard worker's drain path). The backend must be done with ts when
	// the call returns — copied into the engine's columns, or serialized
	// onto the wire — because the worker reuses the slice and its tuples
	// for the next run. sp is the batch's publish-trace span, nil when
	// unsampled: the backend owns it and must finish it exactly once on
	// every path, stamping whichever stages it can see (seal / pipeline
	// / push inside an in-process engine, one StageBackend interval
	// around a remote RPC).
	IngestBatch(streamName string, ts []stream.Tuple, sp *telemetry.Span) error
	// Deploy starts a continuous query.
	Deploy(req DeployRequest) (BackendDeployment, error)
	// Withdraw stops a query by id or handle.
	Withdraw(idOrHandle string) error
	// Subscribe attaches a consumer to a query's output.
	Subscribe(idOrHandle string) (BackendSubscription, error)
	// QueryCount reports running continuous queries (0 on error).
	QueryCount() int
	// Healthy reports whether the backend is believed reachable.
	Healthy() bool
	// Flush blocks until the backend's pipelines have quiesced.
	Flush() error
	// Close releases the backend (engine shutdown / connection close).
	Close() error
}

// replicaTarget is the optional ShardBackend surface a replicated
// stream's follower exposes: Replicate applies a contiguous run of the
// primary's accepted tuples (base is the absolute position of the tuple
// before ts[0]; redeliveries are deduplicated against it so shipping is
// retry-safe), and ReplicaStatus reads back the applied position for
// lag accounting. reset declares that the tuples between the follower's
// applied position and base were trimmed from the shipper's bounded log
// and are permanently lost (counted shipper-side as the follower's
// gap): the receiver jumps its applied position forward to base instead
// of refusing the batch — without it, a follower that restarted empty
// after a log trim could never be re-fed (every ship would bounce off
// the base-ahead-of-applied check forever). reset never moves the
// applied position backward. Both ShardBackend implementations provide
// the surface; it stays optional so test fakes and future backends
// without replication remain valid shards.
type replicaTarget interface {
	Replicate(streamName string, base uint64, reset bool, ts []stream.Tuple) (uint64, error)
	ReplicaStatus(streamName string) (uint64, error)
}

// stateMigrator is the optional ShardBackend surface live query
// migration uses: ExportQueryState serializes a query's window state
// (see dsms.QueryState), ImportQuery deploys a script and installs a
// previously exported state into the fresh query — optionally
// withdrawing replaceID (a standby part being promoted in place) first
// — so the migrated query emits exactly what the original would have.
type stateMigrator interface {
	ExportQueryState(idOrHandle string) (*dsms.QueryState, error)
	ImportQuery(req DeployRequest, replaceID string, st *dsms.QueryState) (BackendDeployment, error)
}

// stateImporter is the optional ShardBackend surface durable window
// checkpoints use: unlike stateMigrator.ImportQuery (which deploys a
// fresh query around the state), ImportQueryState installs a recovered
// state into an ALREADY-deployed part, and SetStreamSeq fast-forwards
// the input stream's sequence counter to the checkpoint's position.
// Only in-process backends provide it — a remote part's state lives in
// its dsmsd process and is not this node's to checkpoint.
type stateImporter interface {
	ExportQueryState(idOrHandle string) (*dsms.QueryState, error)
	ImportQueryState(idOrHandle string, st *dsms.QueryState) error
	SetStreamSeq(name string, seq uint64) error
}

// LocalBackend adapts an in-process dsms.Engine to the ShardBackend
// interface with zero behaviour change relative to the pre-interface
// runtime.
type LocalBackend struct {
	eng *dsms.Engine

	// replMu guards repl, the per-stream applied replication positions
	// (same contract as the dsmsd server's): shipped runs are
	// deduplicated against them so Replicate is retry-safe.
	replMu sync.Mutex
	repl   map[string]uint64
}

// NewLocalBackend wraps an engine.
func NewLocalBackend(eng *dsms.Engine) *LocalBackend { return &LocalBackend{eng: eng} }

// Engine exposes the wrapped engine for tests and migration shims; new
// code should stay on the ShardBackend surface.
func (b *LocalBackend) Engine() *dsms.Engine { return b.eng }

// Kind implements ShardBackend.
func (b *LocalBackend) Kind() string { return "local" }

// CreateStream implements ShardBackend.
func (b *LocalBackend) CreateStream(name string, schema *stream.Schema) error {
	return b.eng.CreateStream(name, schema)
}

// DropStream implements ShardBackend.
func (b *LocalBackend) DropStream(name string) error { return b.eng.DropStream(name) }

// StreamSchema implements ShardBackend.
func (b *LocalBackend) StreamSchema(name string) (*stream.Schema, error) {
	return b.eng.StreamSchema(name)
}

// IngestBatch implements ShardBackend: a publish-trace span sampled at
// PublishBatch time continues through the in-process engine's seal /
// pipeline / push stages.
func (b *LocalBackend) IngestBatch(streamName string, ts []stream.Tuple, sp *telemetry.Span) error {
	return b.eng.IngestBatchTraced(streamName, ts, sp)
}

// Deploy implements ShardBackend, preferring the compiled graph and
// compiling the script only when no graph was provided.
func (b *LocalBackend) Deploy(req DeployRequest) (BackendDeployment, error) {
	g := req.Graph
	if g == nil {
		if req.Script == "" {
			return BackendDeployment{}, fmt.Errorf("runtime: deploy needs a graph or a script")
		}
		c, err := streamql.CompileString(req.Script)
		if err != nil {
			return BackendDeployment{}, err
		}
		g = c.Graph
	}
	if req.Stage != nil && g.Stage == nil {
		// Clone before marking: the runtime reuses one request across
		// shard deploys, and mutating the shared graph would leak the
		// stage into parts that must not have it.
		g = g.Clone()
		g.Stage = req.Stage.Clone()
	}
	d, err := b.eng.Deploy(g)
	if err != nil {
		return BackendDeployment{}, err
	}
	return BackendDeployment{ID: d.ID, Handle: d.Handle, OutputSchema: d.OutputSchema}, nil
}

// Withdraw implements ShardBackend.
func (b *LocalBackend) Withdraw(idOrHandle string) error { return b.eng.Withdraw(idOrHandle) }

// Replicate implements replicaTarget: a shipped run of a replicated
// stream is applied to the in-process engine after trimming any
// already-applied prefix (a shipper retry after an error) against the
// stored position.
func (b *LocalBackend) Replicate(streamName string, base uint64, reset bool, ts []stream.Tuple) (uint64, error) {
	key := strings.ToLower(streamName)
	b.replMu.Lock()
	if b.repl == nil {
		b.repl = map[string]uint64{}
	}
	applied := b.repl[key]
	b.replMu.Unlock()
	if base > applied {
		if !reset {
			// Same contract as dsmsd's handleReplicate: a base ahead of
			// the applied position means this backend lost replica state,
			// and applying the batch would fork the stream's sequence
			// lineage.
			return applied, protocol.WithCode(protocol.CodeReplicaGap,
				fmt.Errorf("runtime: stream %q: replication base %d ahead of applied position %d",
					streamName, base, applied))
		}
		// The shipper declares [applied, base) permanently trimmed from
		// its log: accept the forward jump (the gap is counted on the
		// shipper side) so the retained tail can re-feed this follower.
		applied = base
	}
	fresh := ts
	if base < applied {
		skip := applied - base
		if skip >= uint64(len(ts)) {
			fresh = nil
		} else {
			fresh = ts[skip:]
		}
	}
	if len(fresh) > 0 {
		if err := b.eng.IngestBatchPrevalidated(streamName, fresh); err != nil {
			return applied, err
		}
	}
	end := base + uint64(len(ts))
	b.replMu.Lock()
	if end > b.repl[key] {
		b.repl[key] = end
	}
	acked := b.repl[key]
	b.replMu.Unlock()
	return acked, nil
}

// ReplicaStatus implements replicaTarget.
func (b *LocalBackend) ReplicaStatus(streamName string) (uint64, error) {
	b.replMu.Lock()
	acked := b.repl[strings.ToLower(streamName)]
	b.replMu.Unlock()
	return acked, nil
}

// ExportQueryState implements stateMigrator.
func (b *LocalBackend) ExportQueryState(idOrHandle string) (*dsms.QueryState, error) {
	return b.eng.ExportQueryState(idOrHandle)
}

// ImportQuery implements stateMigrator: deploy and install state in
// one step against the in-process engine, mirroring the dsms.migrate
// verb's import mode.
func (b *LocalBackend) ImportQuery(req DeployRequest, replaceID string, st *dsms.QueryState) (BackendDeployment, error) {
	if replaceID != "" {
		if err := b.eng.Withdraw(replaceID); err != nil && !errors.Is(err, dsms.ErrUnknownQuery) {
			return BackendDeployment{}, err
		}
	}
	if st != nil && st.InputSeq > 0 && st.Input != "" {
		if err := b.eng.SetStreamSeq(st.Input, st.InputSeq); err != nil && !errors.Is(err, dsms.ErrSeqBehind) {
			return BackendDeployment{}, err
		}
	}
	d, err := b.Deploy(req)
	if err != nil {
		return BackendDeployment{}, err
	}
	if st != nil {
		if err := b.eng.ImportQueryState(d.ID, st); err != nil {
			_ = b.eng.Withdraw(d.ID)
			return BackendDeployment{}, err
		}
	}
	return d, nil
}

// ImportQueryState implements stateImporter against the in-process
// engine.
func (b *LocalBackend) ImportQueryState(idOrHandle string, st *dsms.QueryState) error {
	return b.eng.ImportQueryState(idOrHandle, st)
}

// SetStreamSeq implements stateImporter.
func (b *LocalBackend) SetStreamSeq(name string, seq uint64) error {
	return b.eng.SetStreamSeq(name, seq)
}

// Subscribe implements ShardBackend.
func (b *LocalBackend) Subscribe(idOrHandle string) (BackendSubscription, error) {
	sub, err := b.eng.Subscribe(idOrHandle)
	if err != nil {
		return nil, err
	}
	return &localSub{eng: b.eng, key: idOrHandle, sub: sub}, nil
}

// QueryCount implements ShardBackend.
func (b *LocalBackend) QueryCount() int { return b.eng.QueryCount() }

// Healthy implements ShardBackend; an in-process engine is always
// reachable.
func (b *LocalBackend) Healthy() bool { return true }

// Flush implements ShardBackend.
func (b *LocalBackend) Flush() error {
	b.eng.Flush()
	return nil
}

// Close implements ShardBackend.
func (b *LocalBackend) Close() error {
	b.eng.Close()
	return nil
}

// localSub adapts a dsms.Subscription to BackendSubscription.
type localSub struct {
	eng  *dsms.Engine
	key  string
	sub  *dsms.Subscription
	once sync.Once
}

func (s *localSub) Tuples() <-chan stream.Tuple { return s.sub.C }
func (s *localSub) Dropped() uint64             { return s.sub.Dropped() }
func (s *localSub) Close() {
	s.once.Do(func() { s.eng.Unsubscribe(s.key, s.sub) })
}

var (
	_ ShardBackend  = (*LocalBackend)(nil)
	_ replicaTarget = (*LocalBackend)(nil)
	_ stateMigrator = (*LocalBackend)(nil)
	_ stateImporter = (*LocalBackend)(nil)
)
