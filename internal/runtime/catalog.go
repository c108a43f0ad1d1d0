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

// RestoreQuery re-deploys a catalog-recovered query under its original
// runtime id (the checkpoint files are keyed by it) and, when the
// newly issued handle differs from the recorded one, registers the old
// handle as an alias so stored handles keep resolving after a restart.
// The runtime's deployment counter is advanced past the restored id,
// so queries deployed after recovery cannot collide with restored ones.
func (rt *Runtime) RestoreQuery(id, handle, script string) (Deployment, error) {
	if !strings.HasPrefix(id, "rq") {
		return Deployment{}, fmt.Errorf("runtime: restore id %q is not a runtime query id", id)
	}
	c, err := streamql.CompileString(script)
	if err != nil {
		return Deployment{}, fmt.Errorf("runtime: restore %s: %w", id, err)
	}
	dep, err := rt.deploy(c.Input, DeployRequest{Graph: c.Graph, Script: script}, id)
	if err != nil {
		return Deployment{}, err
	}
	if handle != "" && handle != dep.Handle {
		rt.mu.Lock()
		if _, taken := rt.deps[handle]; !taken {
			rt.deps[handle] = rt.deps[dep.ID]
			rt.aliases[dep.ID] = handle
		}
		rt.mu.Unlock()
	}
	return dep, nil
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
// parts on backends without the in-process state surface. Callers skip
// such queries — they restart from an empty window, exactly as before
// checkpoints existed.
var ErrNotCheckpointable = errors.New("runtime: query state not checkpointable")

// QueryCheckpoint is one part's exported window state, keyed by its
// index in the deployment's Parts (stable across a restart because the
// restored deployment re-creates parts in the same shard order).
type QueryCheckpoint struct {
	Part  int              `json:"part"`
	State *dsms.QueryState `json:"state"`
}

// ExportQueryCheckpoint quiesces the query's input flow and exports
// every local part's window state, using the same fence as live
// migration: the feeding shard queues are paused (publishers keep
// queueing), in-flight batches are fenced with waitInflight, the
// replication log (if any) is drained, and the engines flushed — so
// the exported InputSeq exactly delimits the tuples the state covers.
func (rt *Runtime) ExportQueryCheckpoint(idOrHandle string) ([]QueryCheckpoint, error) {
	ds, ok := rt.lookupDep(idOrHandle)
	if !ok {
		return nil, fmt.Errorf("runtime: unknown query %q", idOrHandle)
	}
	if ds.ms != nil {
		return nil, fmt.Errorf("%w: %s is a staged global aggregate", ErrNotCheckpointable, ds.id)
	}
	r := ds.r
	if r.subs != nil {
		return nil, fmt.Errorf("%w: %s reads a replicated partitioned stream", ErrNotCheckpointable, ds.id)
	}
	d := ds.view()
	parts, shards := d.Parts, d.shards

	var paused []*shard
	if r.keyIdx < 0 {
		paused = append(paused, rt.shards[r.primaryShard()])
	} else {
		for _, si := range shards {
			paused = append(paused, rt.shards[si])
		}
	}
	for _, s := range paused {
		s.pause()
	}
	defer func() {
		for _, s := range paused {
			s.resume()
		}
	}()
	for _, s := range paused {
		s.waitInflight()
	}
	if r.repl != nil {
		r.repl.waitIdle(func(i int) bool { return rt.shards[i].failedErr() == nil })
	}
	var out []QueryCheckpoint
	for i, p := range parts {
		s := rt.shards[shards[i]]
		if s.failedErr() != nil {
			continue
		}
		if _, ok := s.be.(stateImporter); !ok {
			// A remote part's state lives (and survives) in its dsmsd
			// process; there is nothing to checkpoint here.
			continue
		}
		_ = s.be.Flush()
		st, err := s.be.ExportQueryState(p.ID)
		if err != nil {
			return nil, fmt.Errorf("runtime: export %s part %d: %w", d.ID, i, err)
		}
		out = append(out, QueryCheckpoint{Part: i, State: st})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %s has no local part", ErrNotCheckpointable, d.ID)
	}
	return out, nil
}

// ImportQueryCheckpoint installs a recovered checkpoint into one part
// of a restored deployment: the input stream's sequence counter is
// fast-forwarded to the checkpoint's InputSeq (so emission provenance
// continues the pre-crash lineage) and the window state replaces the
// fresh part's wholesale.
func (rt *Runtime) ImportQueryCheckpoint(idOrHandle string, cp QueryCheckpoint) error {
	if cp.State == nil {
		return fmt.Errorf("runtime: nil checkpoint state")
	}
	ds, ok := rt.lookupDep(idOrHandle)
	if !ok {
		return fmt.Errorf("runtime: unknown query %q", idOrHandle)
	}
	d := ds.view()
	parts, shards := d.Parts, d.shards
	if cp.Part < 0 || cp.Part >= len(parts) {
		return fmt.Errorf("runtime: checkpoint part %d out of range (query %s has %d)", cp.Part, d.ID, len(parts))
	}
	be := rt.shards[shards[cp.Part]].be
	imp, ok := be.(stateImporter)
	if !ok {
		return fmt.Errorf("%w: %s part %d backend cannot import state", ErrNotCheckpointable, d.ID, cp.Part)
	}
	if cp.State.InputSeq > 0 && cp.State.Input != "" {
		if err := imp.SetStreamSeq(cp.State.Input, cp.State.InputSeq); err != nil && !errors.Is(err, dsms.ErrSeqBehind) {
			return err
		}
	}
	return imp.ImportQueryState(parts[cp.Part].ID, cp.State)
}

// parseDepID reads the numeric suffix of a runtime query id.
func parseDepID(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "rq"))
	return n, err == nil && n > 0
}
