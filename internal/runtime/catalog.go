package runtime

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dsms"
	"repro/internal/stream"
	"repro/internal/streamql"
)

// CatalogObserver receives every control-plane mutation the runtime
// commits — stream DDL, admission reconfigurations, query deploys and
// withdrawals — so a durable store (internal/durable) can persist the
// catalog and re-apply it on the next boot. Callbacks run synchronously
// on the mutating goroutine, after the mutation has committed; they
// must not call back into the runtime.
//
// Admission swaps applied through ReconfigureEphemeral deliberately do
// NOT reach StreamReconfigured: the governor's demotions are re-derived
// from the audit chain on boot, so persisting them in the catalog would
// make a demotion permanent — the catalog must keep the base (operator
// -configured) admission state a cooldown restore lands on.
type CatalogObserver interface {
	// StreamCreated reports a committed stream registration. keyField is
	// empty for single-shard streams.
	StreamCreated(name string, schema *stream.Schema, keyField string, cfg StreamConfig)
	// StreamDropped reports a committed stream removal (its queries are
	// gone with it).
	StreamDropped(name string)
	// StreamReconfigured reports a durable admission swap (Reconfigure,
	// not ReconfigureEphemeral).
	StreamReconfigured(name string, cfg StreamConfig)
	// QueryDeployed reports a committed continuous-query deployment:
	// the runtime id ("rqNNNNN"), the issued handle, the input stream
	// and the StreamSQL script the query can be re-deployed from.
	QueryDeployed(id, handle, input, script string)
	// QueryWithdrawn reports a committed withdrawal by runtime id.
	QueryWithdrawn(id string)
}

// noteStreamCreated feeds a committed registration to the catalog
// observer (nil-safe, like every note* helper).
func (rt *Runtime) noteStreamCreated(name string, schema *stream.Schema, keyField string, cfg StreamConfig) {
	if c := rt.opts.Catalog; c != nil {
		c.StreamCreated(name, schema, keyField, cfg)
	}
}

func (rt *Runtime) noteStreamDropped(name string) {
	if c := rt.opts.Catalog; c != nil {
		c.StreamDropped(name)
	}
}

func (rt *Runtime) noteStreamReconfigured(name string, cfg StreamConfig) {
	if c := rt.opts.Catalog; c != nil {
		c.StreamReconfigured(name, cfg)
	}
}

// noteQueryDeployed records a committed deployment in the catalog. The
// persisted form is the StreamSQL script (regenerated from the graph
// when the caller deployed a bare graph), because the script is the
// one representation every backend can re-deploy from on boot; a graph
// that cannot be rendered (none of the shipped box types qualify) is
// skipped rather than recorded unreplayably.
func (rt *Runtime) noteQueryDeployed(id, handle, input, script string, g *dsms.QueryGraph, schema *stream.Schema) {
	c := rt.opts.Catalog
	if c == nil {
		return
	}
	if script == "" && g != nil {
		script, _ = streamql.GenerateString(g, schema)
	}
	if script == "" {
		return
	}
	c.QueryDeployed(id, handle, input, script)
}

func (rt *Runtime) noteQueryWithdrawn(id string) {
	if c := rt.opts.Catalog; c != nil {
		c.QueryWithdrawn(id)
	}
}

// RestoreQuery re-deploys a catalog-recovered query under its recorded
// runtime id (the checkpoint files are keyed by it) and handle (stored
// handles keep resolving after a restart, whatever form the runtime that
// recorded them issued). It is a deploy with state: every part of
// partition cp.Part, primary and standbys, starts from cp.State through
// ShardBackend.PutPart, which also fast-forwards the input stream's
// sequence so emission provenance continues the pre-crash lineage;
// partitions without a checkpoint start empty. The parts take the names
// the recorded query's parts had, so a dsmsd that survived the restart
// has them replaced, not duplicated. A checkpoint that does not fit the
// query (a part past its partitions, or a state whose operators the
// script does not have) fails the restore, and the caller may retry
// with nil. The runtime's deployment counter is advanced past the
// restored id, so queries deployed after recovery cannot collide with
// restored ones.
func (rt *Runtime) RestoreQuery(id, handle, script string, cps []QueryCheckpoint) (Deployment, error) {
	if !strings.HasPrefix(id, "rq") {
		return Deployment{}, fmt.Errorf("runtime: restore id %q is not a runtime query id", id)
	}
	c, err := streamql.CompileString(script)
	if err != nil {
		return Deployment{}, fmt.Errorf("runtime: restore %s: %w", id, err)
	}
	var states []*dsms.QueryState
	if cps != nil {
		r, err := rt.routeFor(c.Input)
		if err != nil {
			return Deployment{}, err
		}
		states = make([]*dsms.QueryState, r.partitions())
		for _, cp := range cps {
			if cp.Part < 0 || cp.Part >= len(states) || cp.State == nil {
				return Deployment{}, fmt.Errorf("runtime: restore %s: checkpoint part %d does not fit %d partitions", id, cp.Part, len(states))
			}
			states[cp.Part] = cp.State
		}
	}
	return rt.deploy(c.Input, DeployRequest{Graph: c.Graph, Script: script}, id, handle, states)
}

// DeploymentIDs lists the runtime ids of live deployments, sorted; the
// durable checkpointer walks it.
func (rt *Runtime) DeploymentIDs() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]string, 0, len(rt.deps))
	for id, ds := range rt.deps {
		if id == ds.id {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// ErrNotCheckpointable marks a deployment whose window state cannot be
// exported for a durable checkpoint: staged global aggregates (their
// state is spread over per-partition parts plus the merge stage) and
// queries over replicated partitioned streams. Callers skip such
// queries — they restart from an empty window, exactly as before
// checkpoints existed.
var ErrNotCheckpointable = errors.New("runtime: query state not checkpointable")

// QueryCheckpoint is one partition's exported window state. Part is the
// partition index — the position of its primary in Deployment.Parts —
// so RestoreQuery re-installs it into the same partition. The JSON form
// is the persisted checkpoint format.
type QueryCheckpoint struct {
	Part  int              `json:"part"`
	State *dsms.QueryState `json:"state"`
}

// ExportQueryCheckpoint exports, through ShardBackend.ExportQueryState,
// the window state of each partition whose primary part runs on a
// healthy shard, local or remote, under the fence live migration uses
// (quiesce), so each state's InputSeq exactly delimits the tuples it
// covers. One state per partition restores its standbys too, since
// they track the primary. A query with no part on a healthy shard is an
// error, which keeps the previous checkpoint generation the newest.
// Staged global aggregates and replicated partitioned streams are
// ErrNotCheckpointable.
func (rt *Runtime) ExportQueryCheckpoint(idOrHandle string) ([]QueryCheckpoint, error) {
	ds, ok := rt.lookupDep(idOrHandle)
	if !ok {
		return nil, fmt.Errorf("runtime: unknown query %q", idOrHandle)
	}
	if ds.ms != nil {
		return nil, fmt.Errorf("%w: %s is a staged global aggregate", ErrNotCheckpointable, ds.id)
	}
	if ds.r.subs != nil {
		return nil, fmt.Errorf("%w: %s reads a replicated partitioned stream", ErrNotCheckpointable, ds.id)
	}
	d := ds.view()
	defer rt.quiesce(ds.r, d.shards)()
	var out []QueryCheckpoint
	for i, p := range d.Parts {
		s := rt.shards[d.shards[i]]
		if s.failedErr() != nil {
			continue
		}
		st, err := s.be.ExportQueryState(p.ID)
		if err != nil {
			return nil, fmt.Errorf("runtime: export %s part %d: %w", d.ID, i, err)
		}
		out = append(out, QueryCheckpoint{Part: i, State: st})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("runtime: export %s: every part's shard is down", d.ID)
	}
	return out, nil
}

// parseDepID reads the numeric suffix of a runtime query id.
func parseDepID(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "rq"))
	return n, err == nil && n > 0
}
