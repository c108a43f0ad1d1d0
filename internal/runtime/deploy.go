package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/dsms"
	"repro/internal/stream"
	"repro/internal/streamql"
	"repro/internal/telemetry"
)

// Deployment is a continuous query running on the runtime.
type Deployment struct {
	// ID is the runtime-unique query identifier ("rqNNNNN").
	ID string
	// Handle is the URI under which the output stream is served,
	// "dsms://<runtime name>/streams/<ID>" for every query shape (a
	// restored query keeps the handle it was recorded with).
	Handle string
	// Input is the source stream name.
	Input string
	// OutputSchema is the schema of emitted tuples.
	OutputSchema *stream.Schema
	// Parts are the backend deployments currently serving each
	// partition, in partition order (one entry for a single-shard
	// stream); warm standbys are not listed.
	Parts []BackendDeployment

	shards []int
}

// Shards returns the shard indices hosting the deployment's parts,
// parallel to Parts. On a replicated stream this is where each
// partition's primary part currently runs — it changes on failover and
// MigrateQuery.
func (d Deployment) Shards() []int { return append([]int(nil), d.shards...) }

// depState is one deployed query: its identity, and its table of
// parts — every backend deployment that runs it, for every deployment
// shape. Each partition (a single-shard stream is one) has
// one primary part on the shard serving it and warm standbys on the
// followers its replication feeds. ms is the merge stage of a staged
// global aggregate, nil otherwise; subs are the live subscriptions a
// promoted or re-adopted part is spliced into.
type depState struct {
	id, handle string
	r          *route
	out        *stream.Schema
	ms         *mergeStage

	mu    sync.Mutex
	parts []part
	subs  map[*Subscription]struct{}
}

// part is one backend deployment of a query: partition p's copy on
// shard, deployed from req under the name partName gives it on every
// shard (dep.ID). primary marks the part whose shard serves
// the partition; live marks a part that feeds subscribers or the merge
// stage — it was deployed with the query, or promoted. A part
// re-adoption re-creates on a follower stays not-live until promoted:
// its window state has a gap, so its output must not race the
// primary's.
type part struct {
	p       int
	shard   int
	req     DeployRequest
	dep     BackendDeployment
	primary bool
	live    bool
}

// find returns the index of partition p's part on shard i — on any
// shard when i < 0 — or -1. Caller holds ds.mu.
func (ds *depState) find(p, i int) int {
	for k, pt := range ds.parts {
		if pt.p == p && (i < 0 || pt.shard == i) {
			return k
		}
	}
	return -1
}

// partitionOf reports which partition of the query route r serves: 0
// when r is its single-shard input stream, p when r is the input's
// sub-route "name@p", -1 when r feeds the query nothing.
func (ds *depState) partitionOf(r *route) int {
	if ds.r == r {
		return 0
	}
	for p, sub := range ds.r.subs {
		if sub == r {
			return p
		}
	}
	return -1
}

// view is the caller-facing copy of the deployment: the primary parts
// in partition order.
func (ds *depState) view() Deployment {
	d := Deployment{ID: ds.id, Handle: ds.handle, Input: ds.r.name, OutputSchema: ds.out}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for p := 0; p < ds.r.partitions(); p++ {
		for _, pt := range ds.parts {
			if pt.p == p && pt.primary {
				d.Parts = append(d.Parts, pt.dep)
				d.shards = append(d.shards, pt.shard)
			}
		}
	}
	return d
}

func (ds *depState) dropSub(s *Subscription) {
	ds.mu.Lock()
	delete(ds.subs, s)
	ds.mu.Unlock()
}

// depList snapshots the deployed queries, each once (rt.deps keys them
// by id and by handle).
func (rt *Runtime) depList() []*depState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*depState, 0, len(rt.deps))
	for id, ds := range rt.deps {
		if id == ds.id {
			out = append(out, ds)
		}
	}
	return out
}

// Deploy validates a query graph against its input stream and starts
// its continuous execution on the owning shard (or on every shard, for
// partitioned streams). Graphs only work on local shards — a remote
// backend needs the script form, so queries over streams owned by (or
// partitioned onto) remote shards must go through DeployScript.
func (rt *Runtime) Deploy(g *dsms.QueryGraph) (Deployment, error) {
	if g == nil {
		return Deployment{}, fmt.Errorf("runtime: nil query graph")
	}
	return rt.deploy(g.Input, DeployRequest{Graph: g}, "", "", nil)
}

// deploy places a query — carried as a graph, a script, or both — on
// its input stream's shards, one partition at a time: a primary part on
// the shard serving the partition and a best-effort warm standby on
// each healthy follower. A standby consumes the replicated tuple flow,
// so its window state tracks the primary's and a promotion needs no
// state transfer; a graph-only request cannot cross the wire to a
// remote follower, and a downed follower gets its standby at
// re-adoption. The runtime lock is NOT held across the backend Deploy
// calls: a remote shard's deploy is a network RPC (possibly a
// multi-second redial), and holding rt.mu there would freeze routeFor —
// and with it every publish on every stream.
//
// A windowed aggregate over a partitioned stream deploys in two stages:
// its parts run the stage plan (the terminal aggregate folded to window
// partials, or — when it cannot be split, e.g. time windows or a
// preceding filter — a relay of the surviving rows), and a runtime
// merge stage re-aggregates their record streams into the one global
// emission sequence a single-shard deployment would produce. Every part
// feeds the merge from the start: standby records are bit-identical to
// the primary's and dedup by content, so a failover loses nothing.
//
// id and handle, when non-empty, pin the runtime id and handle instead
// of allocating the next id and deriving the handle from it (the
// durable restore path re-deploys catalog queries under their recorded
// id and handle, so checkpoints keyed by id re-attach and stored
// handles keep resolving); the id counter is advanced past a pinned id
// so later deploys cannot collide. states holds the recorded state each
// partition resumes from (the durable restore path; nil for a fresh
// deploy): every part of partition p, primary and standbys, starts from
// states[p].
func (rt *Runtime) deploy(input string, req DeployRequest, id, handle string, states []*dsms.QueryState) (Deployment, error) {
	r, err := rt.routeFor(input)
	if err != nil {
		return Deployment{}, err
	}
	if r.internal {
		return Deployment{}, fmt.Errorf("runtime: stream %q is an internal partition sub-route; deploy against its parent stream", input)
	}
	ds := &depState{r: r}
	var stage *dsms.StageSpec
	if r.keyIdx >= 0 && req.Graph != nil && req.Graph.Stage == nil {
		mode, staged, err := dsms.PlanStage(req.Graph)
		if err != nil {
			return Deployment{}, err
		}
		if staged {
			if ds.out, err = req.Graph.Validate(r.schema); err != nil {
				return Deployment{}, err
			}
			if ds.ms, err = newMergeStage(rt, r, mode, req.Graph); err != nil {
				return Deployment{}, err
			}
			stage = &dsms.StageSpec{Mode: mode}
		}
	}
	if ds.id, err = rt.assignDepID(id, handle); err != nil {
		return Deployment{}, err
	}
	defer rt.doneDeploying(ds.id)
	if ds.handle = handle; handle == "" {
		ds.handle = fmt.Sprintf("dsms://%s/streams/%s", rt.name, ds.id)
	}

	for p := 0; p < r.partitions(); p++ {
		preq := partRequest(r, req, stage, p)
		name := rt.partName(ds.id, p)
		var st *dsms.QueryState
		if p < len(states) {
			st = states[p]
		}
		primary, followers := r.placement(p)
		if ferr := rt.shards[primary].failedErr(); ferr != nil {
			_ = rt.teardown(ds)
			return Deployment{}, fmt.Errorf("runtime: shard %d down: %w", primary, ferr)
		}
		d, err := rt.shards[primary].be.PutPart(name, preq, st)
		if err != nil {
			_ = rt.teardown(ds)
			return Deployment{}, fmt.Errorf("runtime: shard %d: %w", primary, err)
		}
		ds.parts = append(ds.parts, part{p: p, shard: primary, req: preq, dep: d, primary: true, live: true})
		for _, fi := range followers {
			if rt.shards[fi].failedErr() != nil {
				continue
			}
			if sd, err := rt.shards[fi].be.PutPart(name, preq, st); err == nil {
				ds.parts = append(ds.parts, part{p: p, shard: fi, req: preq, dep: sd, live: true})
			}
		}
	}
	for k, pt := range ds.parts {
		if err := rt.attachLocked(ds, pt); err != nil {
			if pt.primary {
				_ = rt.teardown(ds)
				return Deployment{}, fmt.Errorf("runtime: subscribe partition %d (shard %d): %w", pt.p, pt.shard, err)
			}
			ds.parts[k].live = false // a promotion attaches it
		}
	}
	if ds.out == nil {
		ds.out = ds.parts[0].dep.OutputSchema
	}

	rt.mu.Lock()
	if rt.closed || rt.routes[strings.ToLower(r.name)] != r {
		// The runtime closed, or the stream was dropped (and possibly
		// re-created), while the backends deployed: committing now would
		// register a query nothing will ever withdraw. Roll back.
		closed := rt.closed
		rt.mu.Unlock()
		_ = rt.teardown(ds)
		if closed {
			return Deployment{}, errClosed
		}
		return Deployment{}, fmt.Errorf("runtime: stream %q dropped during deploy", r.name)
	}
	rt.deps[ds.id] = ds
	rt.deps[ds.handle] = ds
	rt.mu.Unlock()
	rt.noteQueryDeployed(ds.id, ds.handle, r.name, req.Script, req.Graph, r.schema)
	return ds.view(), nil
}

// partName names partition p's parts of query id on every shard that
// runs one: "<runtime name>/<id>/p<p>". A put under the name replaces
// whatever an earlier deploy, failover or life of the runtime left
// there, and the runtime's name keeps two runtimes sharing a dsmsd out
// of each other's parts.
func (rt *Runtime) partName(id string, p int) string {
	return fmt.Sprintf("%s/%s/p%d", rt.name, id, p)
}

// partQuery reports the query id of a part name in this runtime's
// namespace, and false for any other name.
func (rt *Runtime) partQuery(name string) (string, bool) {
	rest, ours := strings.CutPrefix(name, rt.name+"/")
	id, _, _ := strings.Cut(rest, "/")
	_, isDep := parseDepID(id)
	return id, ours && isDep && strings.Count(rest, "/") == 1
}

// partRequest is the request partition p's parts deploy from. A staged
// query's parts run the stage plan, and a replicated partitioned
// stream's partition lives on the shards as the sub-stream "name@p";
// either rewrites the graph, so the script form that crosses the wire
// to remote shards is regenerated from it (StreamSQL has no stage
// syntax: the stage spec rides beside the script).
func partRequest(r *route, req DeployRequest, stage *dsms.StageSpec, p int) DeployRequest {
	if stage == nil && r.subs == nil {
		return req
	}
	g := req.Graph.Clone()
	if stage != nil {
		if stage.Mode == dsms.StageRelay {
			g.Boxes = g.Boxes[:len(g.Boxes)-1]
		}
		g.Stage = stage.Clone()
	}
	if r.subs != nil {
		g.Input = r.subs[p].name
	}
	script, err := streamql.GenerateString(g, r.schema)
	if err != nil {
		script = ""
	}
	return DeployRequest{Graph: g, Script: script, Stage: stage}
}

// assignDepID allocates the next runtime query id, or pins id
// (advancing the counter past it) and handle for the durable restore
// path, and marks the id deploying until doneDeploying.
func (rt *Runtime) assignDepID(id, handle string) (string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return "", errClosed
	}
	if _, dup := rt.deps[handle]; dup {
		return "", fmt.Errorf("runtime: handle %q already deployed", handle)
	}
	if id == "" {
		rt.nextDep++
		id = fmt.Sprintf("rq%05d", rt.nextDep)
	} else if _, dup := rt.deps[id]; dup || rt.deploying[id] {
		return "", fmt.Errorf("runtime: query %q already deployed", id)
	} else if n, ok := parseDepID(id); ok && n > rt.nextDep {
		rt.nextDep = n
	}
	rt.deploying[id] = true
	return id, nil
}

// doneDeploying ends a deploy of id, committed or rolled back.
func (rt *Runtime) doneDeploying(id string) {
	rt.mu.Lock()
	delete(rt.deploying, id)
	rt.mu.Unlock()
}

// attachLocked starts a part's output flowing: into the merge stage of
// a staged query, or into every live subscription of any other. A
// subscription that cannot reach the part keeps its other sources.
// Caller holds ds.mu (or owns ds before it is registered).
func (rt *Runtime) attachLocked(ds *depState, pt part) error {
	be := rt.shards[pt.shard].be
	if ds.ms != nil {
		return ds.ms.attach(be, pt.dep.ID, pt.p)
	}
	for sub := range ds.subs {
		_ = sub.attach(be, pt.dep.ID, pt.p)
	}
	return nil
}

// promoteLocked makes part k its partition's primary. A part that was
// not live — just deployed, or re-created with a state gap — starts
// feeding now; accepting its gap is the documented degraded mode:
// windows already spanning it may come out short (or, staged, wait for
// the merge buffer bound), later windows are exact again. Caller holds
// ds.mu.
func (rt *Runtime) promoteLocked(ds *depState, k int) {
	for j := range ds.parts {
		if ds.parts[j].p == ds.parts[k].p {
			ds.parts[j].primary = j == k
		}
	}
	if !ds.parts[k].live {
		ds.parts[k].live = true
		_ = rt.attachLocked(ds, ds.parts[k])
	}
}

// teardown ends a query everywhere: the merge stage closes (ending its
// subscribers), then every part on a healthy shard is deleted, which
// closes the engine subscriptions reading it. A down shard is skipped:
// a conn error there would only make an otherwise-complete withdraw
// look failed, and a part that outlived the outage (a partition, not a
// crash) is no longer in any table, so the shard's re-adoption deletes
// it. The table is emptied, so a racing promotion or re-adoption finds
// nothing to rebuild.
func (rt *Runtime) teardown(ds *depState) error {
	if ds.ms != nil {
		ds.ms.close()
	}
	ds.mu.Lock()
	parts := ds.parts
	ds.parts = nil
	ds.mu.Unlock()
	var err error
	for _, pt := range parts {
		if rt.shards[pt.shard].failedErr() != nil {
			continue
		}
		if werr := rt.shards[pt.shard].be.DeletePart(pt.dep.ID); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// DeployScript compiles a StreamSQL script and deploys it, implementing
// the PEP-facing engine surface. When the script embeds its input
// declaration, the declared schema is verified against the registered
// stream, mirroring the dsmsd server. Both the compiled graph and the
// script source are handed to the shard backend, so the same call works
// against in-process engines and remote dsmsd shards.
func (rt *Runtime) DeployScript(script string) (string, string, error) {
	c, err := streamql.CompileString(script)
	if err != nil {
		return "", "", err
	}
	if c.Schema != nil {
		actual, err := rt.StreamSchema(c.Input)
		if err != nil {
			return "", "", err
		}
		if !actual.Equal(c.Schema) {
			return "", "", fmt.Errorf("runtime: script schema for %q does not match registered stream", c.Input)
		}
	}
	dep, err := rt.deploy(c.Input, DeployRequest{Graph: c.Graph, Script: script}, "", "", nil)
	if err != nil {
		return "", "", err
	}
	return dep.ID, dep.Handle, nil
}

// lookupDep resolves a runtime id or handle to its deployment.
func (rt *Runtime) lookupDep(idOrHandle string) (*depState, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	ds, ok := rt.deps[idOrHandle]
	return ds, ok
}

// Query returns the deployment for a runtime id or handle.
func (rt *Runtime) Query(idOrHandle string) (Deployment, bool) {
	ds, ok := rt.lookupDep(idOrHandle)
	if !ok {
		return Deployment{}, false
	}
	return ds.view(), true
}

// forgetLocked unregisters a query's id and handle. Caller holds rt.mu.
func (rt *Runtime) forgetLocked(ds *depState) {
	delete(rt.deps, ds.id)
	delete(rt.deps, ds.handle)
}

// Withdraw stops a deployed query by runtime id or handle.
func (rt *Runtime) Withdraw(idOrHandle string) error {
	rt.mu.Lock()
	ds, ok := rt.deps[idOrHandle]
	if ok {
		rt.forgetLocked(ds)
	}
	rt.mu.Unlock()
	if !ok {
		return fmt.Errorf("runtime: unknown query %q", idOrHandle)
	}
	rt.noteQueryWithdrawn(ds.id)
	return rt.teardown(ds)
}

// Subscription delivers a runtime query's output tuples through one
// buffer, C, of dsms.DefaultSubscriptionBuffer slots. Its sources push
// into it directly: each live part of the query, from the goroutine
// that ingested the batch or its dsmsd connection's read loop, or, for a
// staged global aggregate, the query's merge stage. A push never
// blocks: a tuple that does not fit is dropped and counted, in Dropped
// and in exacml_subscription_dropped_total, so every emission of an
// in-process part is either delivered or counted once. A non-staged
// part on a dsmsd reaches C through that dsmsd's own engine
// subscription, whose sheds count only in the dsmsd's
// exacml_engine_subscription_dropped_total, not here. C closes when
// the last source ends — the query is withdrawn, its stream dropped,
// the runtime closed — or on Close. Per-key ordering is preserved (all tuples of a key flow
// through one partition), global interleaving across partitions is
// not.
//
// Where a partition has replicas, its primary and standby parts process
// the same tuple flow and emit identical output sequences, so the
// subscription keeps one watermark per partition and delivers each
// emission once, in order, from whichever part pushes it first — and
// when the primary dies mid-stream, the standby's copies of the
// in-flight emissions fill the hole instead of the subscription
// restarting from an empty window. Only live parts feed it (see part).
// The watermark orders emissions by their mark: the Seq, then the
// ordinal among the source's consecutive emissions sharing that Seq. A
// Seq alone does not strictly advance — a time-window aggregate stamps
// each emission with the position of the window's last tuple, and
// consecutive windows can share that tuple — but the mark does, and
// every replica computes the same marks, because it emits the same
// sequence. A dropped emission advances the watermark too, so a
// standby's copy of it is neither delivered nor counted again. Global
// aggregates over partitioned streams bypass the watermark: their
// merge stage already delivers one exactly-once sequence. Without
// replicas there is nothing to dedup and no watermark runs.
// TestSubscriptionWatermarkAssumption pins this contract.
type Subscription struct {
	C <-chan stream.Tuple

	c       chan stream.Tuple
	dropTel *telemetry.Counter
	once    sync.Once
	detach  func(*Subscription)

	// mu serializes every push with Close, so nothing is sent on a
	// closed C, and each replica's watermark check with its delivery.
	mu       sync.Mutex
	closed   bool // C closed
	sources  int  // attached sources not yet ended
	dropped  uint64
	closeFns []func() // detach the attached parts
	// marks[p] is partition p's watermark, nil when the query's
	// partitions have no replicas.
	marks []emitMark
}

// emitMark orders one source's emissions: its Seq, then its ordinal
// (from 1) among the source's consecutive emissions with that Seq.
type emitMark struct {
	seq uint64
	ord int
}

// next is the mark of the source's emission after m, with Seq seq.
func (m emitMark) next(seq uint64) emitMark {
	if seq == m.seq {
		return emitMark{seq, m.ord + 1}
	}
	return emitMark{seq, 1}
}

func (m emitMark) after(o emitMark) bool {
	return m.seq > o.seq || m.seq == o.seq && m.ord > o.ord
}

func (rt *Runtime) newSubscription() *Subscription {
	c := make(chan stream.Tuple, dsms.DefaultSubscriptionBuffer)
	return &Subscription{C: c, c: c, dropTel: rt.reg.Counter("exacml_subscription_dropped_total",
		"Output tuples a runtime subscription shed because its consumer lagged behind its buffer.")}
}

// Dropped reports how many tuples were discarded because the consumer
// lagged.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// sendLocked delivers ts without blocking, counting what does not fit.
// Caller holds s.mu.
func (s *Subscription) sendLocked(ts []stream.Tuple) {
	if s.closed {
		return
	}
	var dropped uint64
	for i := range ts {
		select {
		case s.c <- ts[i]:
		default:
			dropped++
		}
	}
	if dropped > 0 {
		s.dropped += dropped
		s.dropTel.Add(dropped)
	}
}

// end ends one source; C closes with the last.
func (s *Subscription) end() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sources--; s.sources == 0 && !s.closed {
		s.closed = true
		close(s.c)
	}
}

// errSubscriptionClosed refuses a part to a subscription whose C has
// already closed.
var errSubscriptionClosed = errors.New("runtime: subscription closed")

// attach subscribes to part name on be as a source of partition p,
// through the partition's watermark when it has replicas. It returns
// nil only when the part became a source; a closed subscription
// refuses the part.
func (s *Subscription) attach(be ShardBackend, name string, p int) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errSubscriptionClosed
	}
	s.sources++
	s.mu.Unlock()
	var m emitMark
	push := func(ts []stream.Tuple) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.marks == nil {
			s.sendLocked(ts)
			return
		}
		for i := range ts {
			if m = m.next(ts[i].Seq); m.after(s.marks[p]) {
				s.marks[p] = m
				s.sendLocked(ts[i : i+1])
			}
		}
	}
	closeFn, err := be.Subscribe(name, push, sync.OnceFunc(s.end))
	s.mu.Lock()
	if err != nil {
		// The part never became a source: take back its count, but
		// leave C to the sources that did attach.
		s.sources--
		s.mu.Unlock()
		return err
	}
	if s.closed {
		s.mu.Unlock()
		closeFn()
		return errSubscriptionClosed
	}
	s.closeFns = append(s.closeFns, closeFn)
	s.mu.Unlock()
	return nil
}

// Close detaches the subscription from every source and closes C; the
// tuples already buffered in C can still be read.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.mu.Lock()
		if !s.closed {
			s.closed = true
			close(s.c)
		}
		closeFns := s.closeFns
		s.closeFns = nil
		s.mu.Unlock()
		if s.detach != nil {
			s.detach(s)
		}
		for _, closeFn := range closeFns {
			closeFn()
		}
	})
}

// Subscribe attaches a consumer to a query's output by runtime id or
// handle. A staged global aggregate's subscription is fed by its merge
// stage. Any other attaches every live part on a healthy shard up
// front, and fails when some partition has none; a later failover or
// re-adoption needs no re-subscription, because the runtime splices the
// promoted part in.
func (rt *Runtime) Subscribe(idOrHandle string) (*Subscription, error) {
	ds, ok := rt.lookupDep(idOrHandle)
	if !ok {
		return nil, fmt.Errorf("runtime: unknown query %q", idOrHandle)
	}
	sub := rt.newSubscription()
	if ds.ms != nil {
		if err := ds.ms.subscribe(sub); err != nil {
			return nil, err
		}
		return sub, nil
	}
	if ds.r.repl != nil || ds.r.subs != nil {
		sub.marks = make([]emitMark, ds.r.partitions())
	}
	// ds.mu is held from reading the table to registering the
	// subscription, so a promotion cannot splice its part in between
	// and miss this subscriber. The subscription holds one source of
	// its own until every part is attached, so C cannot close while a
	// part that ended or failed to attach leaves none counted yet.
	sub.sources = 1
	defer sub.end()
	ds.mu.Lock()
	defer ds.mu.Unlock()
	covered := make([]bool, ds.r.partitions())
	for _, pt := range ds.parts {
		if !pt.live || rt.shards[pt.shard].failedErr() != nil {
			continue
		}
		if sub.attach(rt.shards[pt.shard].be, pt.dep.ID, pt.p) == nil {
			covered[pt.p] = true
		}
	}
	for p, ok := range covered {
		if !ok {
			sub.Close()
			return nil, fmt.Errorf("runtime: no live part of query %q partition %d to subscribe to", ds.id, p)
		}
	}
	sub.detach = ds.dropSub
	if ds.subs == nil {
		ds.subs = map[*Subscription]struct{}{}
	}
	ds.subs[sub] = struct{}{}
	return sub, nil
}

// MigrateQuery live-migrates a deployed query to one of its stream's
// follower replicas while publishers stay connected: the primary's
// shard drain is briefly paused, replication is flushed so the target
// holds the identical tuple flow, the query's window state is exported
// (dsms.QueryState — over the dsms.migrate verb for remote shards) and
// put with the part's name on the target, replacing its standby; the
// migrated part becomes the primary and live subscriptions are spliced
// onto it, and the old primary part stays on as its shard's standby.
// Emission continuity is guaranteed by the subscription watermark: the
// migrated part resumes the exact output sequence the standby was
// producing. Queries over partitioned streams are refused: their parts
// fail over with their partitions.
func (rt *Runtime) MigrateQuery(idOrHandle string, target int) error {
	if target < 0 || target >= len(rt.shards) {
		return fmt.Errorf("runtime: shard %d out of range", target)
	}
	ds, ok := rt.lookupDep(idOrHandle)
	if !ok {
		return fmt.Errorf("runtime: unknown query %q", idOrHandle)
	}
	r := ds.r
	if r.keyIdx >= 0 {
		return fmt.Errorf("runtime: query %q reads partitioned stream %q; its parts fail over with their partitions and cannot be migrated", ds.id, r.name)
	}
	if r.repl == nil {
		return fmt.Errorf("runtime: query %q is not on a replicated stream", ds.id)
	}
	if !r.hasReplica(target) && target != r.shard {
		return fmt.Errorf("runtime: shard %d is not a replica of stream %q", target, r.name)
	}
	ds.mu.Lock()
	src := -1
	var from part
	for _, pt := range ds.parts {
		if pt.primary {
			src, from = pt.shard, pt
		}
	}
	ds.mu.Unlock()
	if src < 0 {
		return fmt.Errorf("runtime: query %q withdrawn", ds.id)
	}
	if src == target {
		return nil
	}
	if rt.shards[src].failedErr() != nil || rt.shards[target].failedErr() != nil {
		return fmt.Errorf("runtime: migration needs both shard %d and shard %d healthy", src, target)
	}
	// Quiesce the flow, so source and target have processed the exact
	// same tuple prefix.
	defer rt.quiesce(r, nil)()

	st, err := rt.shards[src].be.ExportQueryState(from.dep.ID)
	if err != nil {
		return fmt.Errorf("runtime: export from shard %d: %w", src, err)
	}
	moved, err := rt.shards[target].be.PutPart(from.dep.ID, from.req, st)
	if err != nil {
		return fmt.Errorf("runtime: import on shard %d: %w", target, err)
	}
	// The put replaced the target's standby, ending its sources: the
	// migrated part goes in not-live, so promotion splices it into the
	// live subscriptions. The old primary stays live as a standby
	// (its state is current, and the replicated flow keeps it warm).
	ds.mu.Lock()
	k := ds.find(0, target)
	if k < 0 {
		ds.parts = append(ds.parts, part{shard: target, req: from.req})
		k = len(ds.parts) - 1
	}
	ds.parts[k].dep, ds.parts[k].live = moved, false
	rt.promoteLocked(ds, k)
	ds.mu.Unlock()
	rt.count("exacml_query_migrations_total",
		"Live query migrations between replica shards.")
	return nil
}

// quiesce fences the flow into a query over r whose parts run on
// shards, so state exported until resume covers an exact tuple prefix:
// the feeding shards (r's primary, or each part's on a partitioned
// stream) pause their drain, fencing its in-flight batch, while
// publishers keep queueing, and r's replication log reaches every
// healthy follower. An unfenced mid-drain batch could append to the
// log after waitIdle sampled its head — exporting state that covers
// tuples a follower re-applies.
func (rt *Runtime) quiesce(r *route, shards []int) (resume func()) {
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
	if r.repl != nil {
		r.repl.waitIdle(func(i int) bool { return rt.shards[i].failedErr() == nil })
	}
	return func() {
		for _, s := range paused {
			s.resume()
		}
	}
}
