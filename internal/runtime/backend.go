package runtime

import (
	"errors"
	"fmt"

	"repro/internal/dsms"
	"repro/internal/stream"
	"repro/internal/streamql"
	"repro/internal/telemetry"
)

// BackendDeployment describes one continuous query running on one
// shard backend.
type BackendDeployment struct {
	// ID is the part's name on the backend.
	ID string
	// OutputSchema is the schema of emitted tuples.
	OutputSchema *stream.Schema
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

// graph returns the compiled graph to deploy, preferring req.Graph and
// compiling the script only when no graph was provided, with req.Stage
// applied.
func (req DeployRequest) graph() (*dsms.QueryGraph, error) {
	g := req.Graph
	if g == nil {
		if req.Script == "" {
			return nil, fmt.Errorf("runtime: deploy needs a graph or a script")
		}
		c, err := streamql.CompileString(req.Script)
		if err != nil {
			return nil, err
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
	return g, nil
}

// ShardBackend is the whole shard protocol: everything one shard slot
// of the runtime asks of its engine. LocalBackend adapts an in-process
// dsms.Engine; RemoteBackend fronts a dsmsd process, mapping each
// method onto a dsmsd verb, so a runtime can mix in-process and remote
// shards in one topology. The two must behave the same on every method.
// A query runs on a backend as parts the runtime names, and the part
// methods are idempotent by name: a put replaces, a delete stops, a
// list shows what runs.
type ShardBackend interface {
	// Kind names the backend flavour for stats ("local", "remote(addr)").
	Kind() string
	// CreateStream registers an input stream.
	CreateStream(name string, schema *stream.Schema) error
	// DropStream removes a stream, deleting the parts reading from it
	// and clearing its replication position.
	DropStream(name string) error
	// StreamSchema returns a registered stream's schema.
	StreamSchema(name string) (*stream.Schema, error)
	// IngestBatch ships a schema-checked batch into the engine (the
	// shard's drain path). A call that has returned has been
	// processed: every part on the stream has run the batch and pushed
	// its output. The backend is done with ts by then, because the
	// shard reuses its buffer for a later publish. sp is
	// the batch's publish-trace span, nil when unsampled: the backend
	// owns it and must finish it exactly once on every path, stamping
	// whichever stages it can see (seal / pipeline / push inside an
	// in-process engine, one StageBackend interval around a remote
	// RPC).
	IngestBatch(streamName string, ts []stream.Tuple, sp *telemetry.Span) error
	// PutPart runs req as the part named name, replacing the part
	// already running under that name. A non-nil st is a previously
	// exported state installed into the fresh part, which also
	// fast-forwards the input stream's sequence, so the part emits
	// exactly what the exporting one would have. It is the one deploy
	// path: fresh deploys, promotions, re-adoption, live migration and
	// the durable restore all use it; see dsms.Engine.Put.
	PutPart(name string, req DeployRequest, st *dsms.QueryState) (BackendDeployment, error)
	// DeletePart stops the part named name.
	DeletePart(name string) error
	// ListParts names the parts running on the backend, sorted.
	ListParts() ([]string, error)
	// Subscribe attaches a consumer to a part's output: push receives
	// its output batches one call at a time — on the goroutine whose
	// ingest sealed the batch, or on the subscription connection's read
	// loop — and
	// end is called once when the part stops or the connection dies,
	// never when Subscribe fails. push keeps copies of the tuples, not
	// the reused slice, and blocks only where holding up the part is
	// intended. The returned closeFn detaches the consumer; a push or
	// end under way when it is called may still finish.
	Subscribe(name string, push func([]stream.Tuple), end func()) (closeFn func(), err error)
	// Healthy reports whether the backend is believed reachable.
	Healthy() bool
	// Close releases the backend (engine shutdown / connection close).
	Close() error
	// Replicate applies a contiguous run of replication log log's
	// tuples on a follower and returns the follower's applied position
	// in that log, also when it refuses the run; like IngestBatch, a
	// call that has returned has been processed. See
	// dsms.Engine.Replicate for the log, dedup and reset contract.
	Replicate(streamName string, log, base uint64, reset bool, ts []stream.Tuple) (uint64, error)
	// ExportQueryState serializes a part's window state (see
	// dsms.QueryState).
	ExportQueryState(name string) (*dsms.QueryState, error)
}

// LocalBackend adapts an in-process dsms.Engine to the ShardBackend
// interface.
type LocalBackend struct {
	eng *dsms.Engine
}

// NewLocalBackend wraps an engine.
func NewLocalBackend(eng *dsms.Engine) *LocalBackend { return &LocalBackend{eng: eng} }

// Engine exposes the wrapped engine for tests and migration shims; new
// code should stay on the ShardBackend surface.
func (b *LocalBackend) Engine() *dsms.Engine { return b.eng }

// Kind implements ShardBackend.
func (b *LocalBackend) Kind() string { return "local" }

// CreateStream implements ShardBackend. Like RemoteBackend, it adopts
// a stream that already exists with an equal schema and refuses one
// with a different schema.
func (b *LocalBackend) CreateStream(name string, schema *stream.Schema) error {
	err := b.eng.CreateStream(name, schema)
	if errors.Is(err, dsms.ErrStreamExists) {
		if existing, serr := b.eng.StreamSchema(name); serr == nil && existing.Equal(schema) {
			return nil
		}
	}
	return err
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

// PutPart implements ShardBackend.
func (b *LocalBackend) PutPart(name string, req DeployRequest, st *dsms.QueryState) (BackendDeployment, error) {
	g, err := req.graph()
	if err != nil {
		return BackendDeployment{}, err
	}
	d, err := b.eng.Put(name, g, st)
	if err != nil {
		return BackendDeployment{}, err
	}
	return BackendDeployment{ID: d.ID, OutputSchema: d.OutputSchema}, nil
}

// DeletePart implements ShardBackend.
func (b *LocalBackend) DeletePart(name string) error { return b.eng.Withdraw(name) }

// ListParts implements ShardBackend.
func (b *LocalBackend) ListParts() ([]string, error) { return b.eng.Queries(), nil }

// Replicate implements ShardBackend.
func (b *LocalBackend) Replicate(streamName string, log, base uint64, reset bool, ts []stream.Tuple) (uint64, error) {
	return b.eng.Replicate(streamName, log, base, reset, ts)
}

// ExportQueryState implements ShardBackend.
func (b *LocalBackend) ExportQueryState(name string) (*dsms.QueryState, error) {
	return b.eng.ExportQueryState(name)
}

// Subscribe implements ShardBackend: push and end are registered with
// the engine.
func (b *LocalBackend) Subscribe(name string, push func([]stream.Tuple), end func()) (func(), error) {
	return b.eng.Attach(name, push, end)
}

// Healthy implements ShardBackend; an in-process engine is always
// reachable.
func (b *LocalBackend) Healthy() bool { return true }

// Close implements ShardBackend.
func (b *LocalBackend) Close() error {
	b.eng.Close()
	return nil
}

var _ ShardBackend = (*LocalBackend)(nil)
