package runtime

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/dsms"
	"repro/internal/stream"
	"repro/internal/streamql"
)

// Deployment is a continuous query running on the runtime. For a
// single-shard stream it wraps one backend deployment and reuses its
// handle; for a partitioned stream the same query runs on every shard
// and the runtime issues a synthetic handle whose subscription merges
// all per-shard outputs.
type Deployment struct {
	// ID is the runtime-unique query identifier ("rqNNNNN").
	ID string
	// Handle is the URI under which the output stream is served.
	Handle string
	// Input is the source stream name.
	Input string
	// OutputSchema is the schema of emitted tuples.
	OutputSchema *stream.Schema
	// Parts are the per-shard backend deployments (one entry for
	// single-shard streams).
	Parts []BackendDeployment

	shards []int
}

// Shards returns the shard indices hosting the deployment's parts,
// parallel to Parts. For a replicated stream's query this is where the
// active (primary) part currently runs — it changes on failover and
// MigrateQuery.
func (d Deployment) Shards() []int { return append([]int(nil), d.shards...) }

// depState is the runtime-side mutable state of one deployment, kept
// out of the Deployment struct (which is copied by value to callers):
// the deploy request for failover redeploys, the standby parts kept
// warm on follower shards of a replicated route, and the live
// subscriptions to re-attach when a part moves.
type depState struct {
	req   DeployRequest
	input string

	mu      sync.Mutex
	standby map[int]BackendDeployment
	subs    map[*Subscription]struct{}
	staged  *stagedDep
}

// stagedDep is the runtime state of a two-stage global aggregate over a
// partitioned stream: one staged query part per partition (plus warm
// standby parts on a replicated stream's followers) feeding a merge
// stage that re-aggregates the per-partition records into the global
// answer. parts is guarded by depState.mu.
type stagedDep struct {
	mode  dsms.StageMode
	ms    *mergeStage
	parts []stagedPart
}

// stagedPart is one partition-stage deployment. primary marks the part
// whose records currently drive the partition (standbys stay deployed
// and warm but their record streams are redundant — the merge stage
// dedups by content); attached marks whether its record stream is wired
// into the merge stage.
type stagedPart struct {
	partition int
	shard     int
	req       DeployRequest
	dep       BackendDeployment
	primary   bool
	attached  bool
}

func (ds *depState) addSub(s *Subscription) {
	ds.mu.Lock()
	if ds.subs == nil {
		ds.subs = map[*Subscription]struct{}{}
	}
	ds.subs[s] = struct{}{}
	ds.mu.Unlock()
}

func (ds *depState) dropSub(s *Subscription) {
	ds.mu.Lock()
	delete(ds.subs, s)
	ds.mu.Unlock()
}

func (ds *depState) subList() []*Subscription {
	ds.mu.Lock()
	out := make([]*Subscription, 0, len(ds.subs))
	for s := range ds.subs {
		out = append(out, s)
	}
	ds.mu.Unlock()
	return out
}

// depStateFor returns the mutable state of a deployment id, or nil.
func (rt *Runtime) depStateFor(id string) *depState {
	rt.depMu.Lock()
	ds := rt.depSt[id]
	rt.depMu.Unlock()
	return ds
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
	return rt.deploy(g.Input, DeployRequest{Graph: g}, "")
}

// deploy runs a query — carried as a graph, a script, or both — on the
// input stream's shard(s). The runtime lock is NOT held across the
// backend Deploy calls: a remote shard's deploy is a network RPC
// (possibly a multi-second redial), and holding rt.mu there would
// freeze routeFor — and with it every publish on every stream.
//
// forceID, when non-empty, pins the runtime id instead of allocating
// the next one (the durable restore path re-deploys catalog queries
// under their original ids so checkpoints keyed by id re-attach); the
// id counter is advanced past it so later deploys cannot collide.
func (rt *Runtime) deploy(input string, req DeployRequest, forceID string) (Deployment, error) {
	r, err := rt.routeFor(input)
	if err != nil {
		return Deployment{}, err
	}
	if r.internal {
		return Deployment{}, fmt.Errorf("runtime: stream %q is an internal partition sub-route; deploy against its parent stream", input)
	}
	// A windowed aggregate over a partitioned stream deploys in two
	// stages: per-partition stage queries plus a runtime merge stage
	// that re-aggregates their records into one global answer.
	// Non-aggregate queries keep the plain per-shard deployment (their
	// merged subscription needs no cross-partition alignment).
	if r.keyIdx >= 0 && req.Graph != nil && req.Graph.Stage == nil {
		mode, staged, perr := dsms.PlanStage(req.Graph)
		if perr != nil {
			return Deployment{}, perr
		}
		if staged {
			return rt.deployStaged(r, req, mode, forceID)
		}
	}
	if r.subs != nil {
		// A replicated partitioned stream lives on the shards as the
		// sub-routes "name@p"; the plain per-shard deploy below targets
		// "name", which no backend holds. Refuse before touching one.
		return Deployment{}, fmt.Errorf("runtime: stream %q is partitioned with replication %d: non-aggregate queries over a replicated partitioned stream are not supported yet (windowed aggregates are)", r.name, rt.opts.Replication)
	}
	id, err := rt.assignDepID(forceID)
	if err != nil {
		return Deployment{}, err
	}

	undo := func(dep *Deployment) {
		for j, p := range dep.Parts {
			_ = rt.shards[dep.shards[j]].be.Withdraw(p.ID)
		}
	}
	dep := Deployment{ID: id, Input: r.name}
	if r.keyIdx < 0 {
		si := r.primaryShard()
		d, err := rt.shards[si].be.Deploy(req)
		if err != nil {
			return Deployment{}, err
		}
		dep.Handle = d.Handle
		dep.OutputSchema = d.OutputSchema
		dep.Parts = []BackendDeployment{d}
		dep.shards = []int{si}
	} else {
		dep.Handle = fmt.Sprintf("xrt://%s/streams/%s", rt.name, id)
		for i, s := range rt.shards {
			d, err := s.be.Deploy(req) // backends clone/compile per shard; reuse is safe
			if err != nil {
				undo(&dep)
				return Deployment{}, fmt.Errorf("runtime: shard %d: %w", i, err)
			}
			dep.OutputSchema = d.OutputSchema
			dep.Parts = append(dep.Parts, d)
			dep.shards = append(dep.shards, i)
		}
	}
	rt.mu.Lock()
	if rt.closed {
		// The runtime closed while the backends deployed; roll back.
		rt.mu.Unlock()
		undo(&dep)
		return Deployment{}, errClosed
	}
	if cur, ok := rt.routes[strings.ToLower(r.name)]; !ok || cur != r {
		// The stream was dropped (and possibly re-created) while the
		// backends deployed; committing now would register a query the
		// drop already withdrew. Roll back instead.
		rt.mu.Unlock()
		undo(&dep)
		return Deployment{}, fmt.Errorf("runtime: stream %q dropped during deploy", r.name)
	}
	rt.deps[id] = &dep
	rt.deps[dep.Handle] = &dep
	rt.mu.Unlock()
	ds := &depState{req: req, input: r.name}
	// Replicated routes keep a standby part warm on every healthy
	// follower: it consumes the replicated tuple flow, so its window
	// state tracks the primary's and a promotion needs no state
	// transfer. Standby deploys are best effort (a graph-only request
	// cannot cross the wire to a remote follower; a downed follower
	// re-acquires its standby at re-adoption).
	if r.keyIdx < 0 && r.repl != nil {
		ds.standby = map[int]BackendDeployment{}
		primary := dep.shards[0]
		for _, fi := range r.replicas {
			if fi == primary || rt.shards[fi].failedErr() != nil {
				continue
			}
			if sd, err := rt.shards[fi].be.Deploy(req); err == nil {
				ds.standby[fi] = sd
			}
		}
	}
	rt.depMu.Lock()
	rt.depSt[id] = ds
	rt.depMu.Unlock()
	rt.noteQueryDeployed(id, dep.Handle, r.name, req.Script, req.Graph, r.schema)
	return dep, nil
}

// assignDepID allocates the next runtime query id, or pins forceID
// (advancing the counter past it) for the durable restore path.
func (rt *Runtime) assignDepID(forceID string) (string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return "", errClosed
	}
	if forceID == "" {
		rt.nextDep++
		return fmt.Sprintf("rq%05d", rt.nextDep), nil
	}
	if _, dup := rt.deps[forceID]; dup {
		return "", fmt.Errorf("runtime: query %q already deployed", forceID)
	}
	if n, ok := parseDepID(forceID); ok && n > rt.nextDep {
		rt.nextDep = n
	}
	return forceID, nil
}

// deployStaged runs a windowed aggregate over a partitioned stream as
// a two-stage plan: each partition gets a stage query (the graph with
// its terminal aggregate folded to window partials, or — when the
// aggregate cannot be split, e.g. time windows or a preceding filter —
// a relay of the surviving rows), and a runtime-side merge stage
// re-aggregates the per-partition record streams into the one global
// emission sequence a single-shard deployment would produce. On a
// replicated stream each partition's stage also deploys warm standby
// parts on the healthy followers, attached to the merge up front:
// their records are bit-identical to the primary's and dedup by
// content, so a failover needs no re-subscription and loses nothing.
func (rt *Runtime) deployStaged(r *route, req DeployRequest, mode dsms.StageMode, forceID string) (Deployment, error) {
	g := req.Graph
	outSchema, err := g.Validate(r.schema)
	if err != nil {
		return Deployment{}, err
	}
	agg := g.Boxes[len(g.Boxes)-1]
	aggIn := r.schema
	for _, b := range g.Boxes[:len(g.Boxes)-1] {
		if aggIn, err = b.OutputSchema(aggIn); err != nil {
			return Deployment{}, err
		}
	}
	id, err := rt.assignDepID(forceID)
	if err != nil {
		return Deployment{}, err
	}

	ms, err := newMergeStage(rt, r, mode, agg, aggIn)
	if err != nil {
		return Deployment{}, err
	}
	spec := &dsms.StageSpec{Mode: mode}
	var parts []stagedPart
	undo := func() {
		ms.close()
		for _, sp := range parts {
			if rt.shards[sp.shard].failedErr() == nil {
				_ = rt.shards[sp.shard].be.Withdraw(sp.dep.ID)
			}
		}
	}
	for p := range rt.shards {
		pg := g.Clone()
		if mode == dsms.StageRelay {
			pg.Boxes = pg.Boxes[:len(pg.Boxes)-1]
		}
		pg.Stage = spec.Clone()
		if r.subs != nil {
			pg.Input = r.subs[p].name
		}
		// The script form crosses the wire to remote shards; the stage
		// spec rides beside it (StreamSQL has no stage syntax).
		script, serr := streamql.GenerateString(pg, r.schema)
		if serr != nil {
			script = ""
		}
		partReq := DeployRequest{Graph: pg, Script: script, Stage: spec}
		primary := p
		var followers []int
		if r.subs != nil {
			sub := r.subs[p]
			primary = sub.primaryShard()
			for _, fi := range sub.replicas {
				if fi != primary {
					followers = append(followers, fi)
				}
			}
		}
		if ferr := rt.shards[primary].failedErr(); ferr != nil {
			undo()
			return Deployment{}, fmt.Errorf("runtime: partition %d: shard %d down: %w", p, primary, ferr)
		}
		d, derr := rt.shards[primary].be.Deploy(partReq)
		if derr != nil {
			undo()
			return Deployment{}, fmt.Errorf("runtime: partition %d (shard %d): %w", p, primary, derr)
		}
		parts = append(parts, stagedPart{partition: p, shard: primary, req: partReq, dep: d, primary: true})
		for _, fi := range followers {
			if rt.shards[fi].failedErr() != nil {
				continue
			}
			if sd, serr := rt.shards[fi].be.Deploy(partReq); serr == nil {
				parts = append(parts, stagedPart{partition: p, shard: fi, req: partReq, dep: sd})
			}
		}
	}
	for i := range parts {
		sp := &parts[i]
		bs, serr := rt.shards[sp.shard].be.Subscribe(sp.dep.ID)
		if serr != nil {
			if sp.primary {
				undo()
				return Deployment{}, fmt.Errorf("runtime: subscribe partition %d (shard %d): %w", sp.partition, sp.shard, serr)
			}
			continue
		}
		ms.attachSource(sp.partition, bs)
		sp.attached = true
	}
	dep := Deployment{
		ID:           id,
		Handle:       fmt.Sprintf("xrt://%s/streams/%s", rt.name, id),
		Input:        r.name,
		OutputSchema: outSchema,
	}
	for i := range parts {
		if parts[i].primary {
			dep.Parts = append(dep.Parts, parts[i].dep)
			dep.shards = append(dep.shards, parts[i].shard)
		}
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		undo()
		return Deployment{}, errClosed
	}
	if cur, ok := rt.routes[strings.ToLower(r.name)]; !ok || cur != r {
		rt.mu.Unlock()
		undo()
		return Deployment{}, fmt.Errorf("runtime: stream %q dropped during deploy", r.name)
	}
	rt.deps[id] = &dep
	rt.deps[dep.Handle] = &dep
	rt.mu.Unlock()
	ds := &depState{req: req, input: r.name, staged: &stagedDep{mode: mode, ms: ms, parts: parts}}
	rt.depMu.Lock()
	rt.depSt[id] = ds
	rt.depMu.Unlock()
	rt.noteQueryDeployed(id, dep.Handle, r.name, req.Script, req.Graph, r.schema)
	return dep, nil
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
	dep, err := rt.deploy(c.Input, DeployRequest{Graph: c.Graph, Script: script}, "")
	if err != nil {
		return "", "", err
	}
	return dep.ID, dep.Handle, nil
}

// lookupDep resolves a runtime id or handle to its deployment.
func (rt *Runtime) lookupDep(idOrHandle string) (*Deployment, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	d, ok := rt.deps[idOrHandle]
	return d, ok
}

// Query returns the deployment for a runtime id or handle. The copy
// is taken under rt.mu: failover promotion rewrites Parts/shards in
// place, so an unlocked dereference would race with it.
func (rt *Runtime) Query(idOrHandle string) (Deployment, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	d, ok := rt.deps[idOrHandle]
	if !ok {
		return Deployment{}, false
	}
	cp := *d
	cp.Parts = append([]BackendDeployment(nil), d.Parts...)
	cp.shards = append([]int(nil), d.shards...)
	return cp, true
}

// Withdraw stops a deployed query by runtime id or handle. Handles
// issued directly by a shard backend are routed by trial, so the PEP's
// withdraw-by-whatever-it-stored behaviour keeps working.
func (rt *Runtime) Withdraw(idOrHandle string) error {
	rt.mu.Lock()
	d, ok := rt.deps[idOrHandle]
	if ok {
		delete(rt.deps, d.ID)
		delete(rt.deps, d.Handle)
		if al, aok := rt.aliases[d.ID]; aok {
			delete(rt.deps, al)
			delete(rt.aliases, d.ID)
		}
	}
	rt.mu.Unlock()
	if ok {
		rt.noteQueryWithdrawn(d.ID)
	}
	if !ok {
		for _, s := range rt.shards {
			if err := s.be.Withdraw(idOrHandle); err == nil {
				return nil
			}
		}
		return fmt.Errorf("runtime: unknown query %q", idOrHandle)
	}
	rt.depMu.Lock()
	ds := rt.depSt[d.ID]
	delete(rt.depSt, d.ID)
	rt.depMu.Unlock()
	if ds != nil && ds.staged != nil {
		// Staged global aggregate: stop the merge stage (ends every
		// subscriber), then withdraw all partition parts — primaries and
		// warm standbys alike.
		ds.staged.ms.close()
		ds.mu.Lock()
		parts := append([]stagedPart(nil), ds.staged.parts...)
		ds.mu.Unlock()
		var werr error
		for _, sp := range parts {
			if rt.shards[sp.shard].failedErr() != nil {
				continue
			}
			if e := rt.shards[sp.shard].be.Withdraw(sp.dep.ID); e != nil && werr == nil {
				werr = e
			}
		}
		return werr
	}
	if ds != nil {
		ds.mu.Lock()
		standby := make(map[int]BackendDeployment, len(ds.standby))
		for si, sd := range ds.standby {
			standby[si] = sd
		}
		ds.mu.Unlock()
		for si, sd := range standby {
			if rt.shards[si].failedErr() == nil {
				_ = rt.shards[si].be.Withdraw(sd.ID)
			}
		}
	}
	var err error
	for i, p := range d.Parts {
		if rt.shards[d.shards[i]].failedErr() != nil {
			// The shard's backend is down: its queries died with the
			// process, so there is nothing left to withdraw there and a
			// conn error would only make an otherwise-complete withdraw
			// look failed.
			continue
		}
		if werr := rt.shards[d.shards[i]].be.Withdraw(p.ID); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// Subscription delivers a runtime query's output tuples. For queries on
// partitioned streams it merges the per-shard output streams into one
// channel; per-key ordering is preserved (all tuples of a key flow
// through one shard), global interleaving across keys is not.
//
// For queries on replicated streams the subscription attaches to the
// primary part AND every standby part up front, merging them through a
// monotonic sequence watermark: primary and standbys process the same
// tuple flow and emit identical output sequences, so the watermark
// delivers each emission exactly once, in order, regardless of which
// replica it arrived from — and when the primary dies mid-stream, the
// standby's copies of the in-flight emissions fill the hole instead of
// the subscription restarting from an empty window. (The watermark
// assumes an output's Seq strictly advances between emissions, which
// holds whenever every emission covers at least one new input tuple.)
//
// That assumption does NOT hold for every output: a time-window
// aggregate stamps each emission with the position of the window's
// last tuple, and two consecutive windows can share that tuple,
// repeating the Seq. Global aggregates over partitioned streams
// therefore bypass the watermark entirely — their merge stage already
// delivers one exactly-once sequence, and running it through Seq dedup
// would silently swallow real emissions after a failover. Seq dedup is
// applied only where strict advance is structural: replica merging of
// a single-shard query's parts, which emit from one engine lineage.
// TestSubscriptionWatermarkAssumption pins both halves of this
// contract.
type Subscription struct {
	C <-chan stream.Tuple

	merged chan stream.Tuple
	once   sync.Once
	detach func(*Subscription)

	mu     sync.Mutex
	parts  []BackendSubscription
	active int  // forwarders still running
	ended  bool // merged closed (all forwarders exited)
	closed bool // Close called

	// dedup state: sendMu serializes the watermark check with the
	// delivery, so two replicas' forwarders cannot reorder emissions.
	dedup   bool
	sendMu  sync.Mutex
	lastSeq uint64
}

// Dropped sums the tuples discarded across the underlying
// subscriptions because the consumer lagged.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, p := range s.parts {
		n += p.Dropped()
	}
	return n
}

// attach adds one backend subscription as a source and starts its
// forwarder; it reports false when the subscription cannot accept new
// sources — already closed, ended, or a plain single-part subscription
// without a merge channel (those expose the backend channel directly,
// so a replacement part cannot be spliced in; the consumer sees the
// close and re-subscribes). The refused backend subscription is closed.
func (s *Subscription) attach(bs BackendSubscription) bool {
	s.mu.Lock()
	if s.merged == nil || s.closed || s.ended {
		s.mu.Unlock()
		bs.Close()
		return false
	}
	s.parts = append(s.parts, bs)
	s.active++
	s.mu.Unlock()
	go s.forward(bs)
	return true
}

func (s *Subscription) forward(bs BackendSubscription) {
	for t := range bs.Tuples() {
		if s.dedup {
			s.sendMu.Lock()
			if t.Seq <= s.lastSeq {
				s.sendMu.Unlock()
				continue
			}
			s.lastSeq = t.Seq
			s.merged <- t
			s.sendMu.Unlock()
		} else {
			s.merged <- t
		}
	}
	s.mu.Lock()
	s.active--
	if s.active == 0 && !s.ended {
		// Every source died (withdrawn query, dead connections): end the
		// merged stream so consumers' range loops terminate, matching
		// the single-part behaviour.
		s.ended = true
		close(s.merged)
	}
	s.mu.Unlock()
}

// Close detaches the subscription from every shard; C is closed once
// all buffered tuples have been forwarded.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.mu.Lock()
		s.closed = true
		parts := append([]BackendSubscription(nil), s.parts...)
		drain := false
		if s.merged != nil && !s.ended {
			if s.active == 0 {
				s.ended = true
				close(s.merged)
			} else {
				drain = true
			}
		}
		s.mu.Unlock()
		if s.detach != nil {
			s.detach(s)
		}
		for _, p := range parts {
			p.Close()
		}
		if drain {
			// Unblock forwarders stuck sending into the merged buffer
			// when the consumer is gone: drain until the last forwarder
			// closes the channel.
			go func() {
				for range s.merged {
				}
			}()
		}
	})
}

// Subscribe attaches a consumer to a query's output by runtime id or
// handle (handles issued directly by shard backends also resolve).
// Queries on replicated streams are attached on the primary part and
// every live standby, merged through the sequence watermark (see
// Subscription); a later failover needs no re-subscription, because
// the promoted standby's emissions are already flowing.
func (rt *Runtime) Subscribe(idOrHandle string) (*Subscription, error) {
	d, ok := rt.lookupDep(idOrHandle)
	if !ok {
		for _, s := range rt.shards {
			if sub, err := s.be.Subscribe(idOrHandle); err == nil {
				return &Subscription{C: sub.Tuples(), parts: []BackendSubscription{sub}}, nil
			}
		}
		return nil, fmt.Errorf("runtime: unknown query %q", idOrHandle)
	}
	rt.mu.RLock()
	parts := d.Parts
	shards := d.shards
	rt.mu.RUnlock()
	ds := rt.depStateFor(d.ID)
	if ds != nil && ds.staged != nil {
		// Staged global aggregate: the merge stage already produced the
		// single globally ordered, exactly-once emission sequence, so the
		// subscription wraps one output channel directly — deliberately
		// WITHOUT the Seq watermark (see the Subscription doc: a
		// time-window aggregate's provenance Seq can repeat across
		// consecutive emissions, and deduping on it would swallow real
		// windows).
		mo, err := ds.staged.ms.newOutput()
		if err != nil {
			return nil, err
		}
		return &Subscription{C: mo.Tuples(), parts: []BackendSubscription{mo}}, nil
	}
	if ds == nil || ds.standby == nil {
		if len(parts) == 1 {
			sub, err := rt.shards[shards[0]].be.Subscribe(parts[0].ID)
			if err != nil {
				return nil, err
			}
			return &Subscription{C: sub.Tuples(), parts: []BackendSubscription{sub}}, nil
		}
		// Partitioned: merge every shard's output, no dedup (each shard
		// emits its own keys). Registering the subscription lets a
		// re-adopted shard's redeployed part be spliced back in.
		out := make(chan stream.Tuple, dsms.DefaultSubscriptionBuffer)
		sub := &Subscription{C: out, merged: out}
		if ds != nil {
			sub.detach = ds.dropSub
		}
		for i, p := range parts {
			bs, err := rt.shards[shards[i]].be.Subscribe(p.ID)
			if err != nil {
				sub.Close()
				return nil, err
			}
			sub.attach(bs)
		}
		if ds != nil {
			ds.addSub(sub)
		}
		return sub, nil
	}
	// Replicated: dedup-merge the primary part and every standby.
	ds.mu.Lock()
	standby := make(map[int]BackendDeployment, len(ds.standby))
	for si, sd := range ds.standby {
		standby[si] = sd
	}
	ds.mu.Unlock()
	out := make(chan stream.Tuple, dsms.DefaultSubscriptionBuffer)
	sub := &Subscription{C: out, merged: out, dedup: true, detach: ds.dropSub}
	attached := 0
	if rt.shards[shards[0]].failedErr() == nil {
		if bs, err := rt.shards[shards[0]].be.Subscribe(parts[0].ID); err == nil {
			sub.attach(bs)
			attached++
		}
	}
	for si, sd := range standby {
		if rt.shards[si].failedErr() != nil {
			continue
		}
		if bs, err := rt.shards[si].be.Subscribe(sd.ID); err == nil {
			sub.attach(bs)
			attached++
		}
	}
	if attached == 0 {
		sub.Close()
		return nil, fmt.Errorf("runtime: no live part of query %q to subscribe to", d.ID)
	}
	ds.addSub(sub)
	return sub, nil
}

// MigrateQuery live-migrates a deployed query to one of its stream's
// follower replicas while publishers stay connected: the primary's
// shard drain is briefly paused, replication is flushed so the target
// holds the identical tuple flow, the query's window state is exported
// (dsms.QueryState — over the dsms.migrate verb for remote shards) and
// imported into a fresh deployment on the target replacing its standby
// part, live subscriptions are re-attached to the migrated part, and
// the old primary part stays on as the standby for its shard. Emission
// continuity is guaranteed by the subscription watermark: the migrated
// part resumes the exact output sequence the standby was producing.
func (rt *Runtime) MigrateQuery(idOrHandle string, target int) error {
	if target < 0 || target >= len(rt.shards) {
		return fmt.Errorf("runtime: shard %d out of range", target)
	}
	d, ok := rt.lookupDep(idOrHandle)
	if !ok {
		return fmt.Errorf("runtime: unknown query %q", idOrHandle)
	}
	ds := rt.depStateFor(d.ID)
	if ds != nil && ds.staged != nil {
		// A staged global aggregate has one part per partition (plus
		// standbys) — "migrate the query" is ambiguous, and each part
		// already fails over with its partition's replication. The
		// dsms-level stage state is migrate-capable (QueryState carries
		// it); only the multi-part orchestration is refused.
		return fmt.Errorf("runtime: query %q is a staged global aggregate; its parts fail over with their partitions and cannot be migrated", d.ID)
	}
	if ds == nil || ds.standby == nil {
		return fmt.Errorf("runtime: query %q is not on a replicated stream", d.ID)
	}
	r, err := rt.routeFor(ds.input)
	if err != nil {
		return err
	}
	if !r.hasReplica(target) && target != r.shard {
		return fmt.Errorf("runtime: shard %d is not a replica of stream %q", target, ds.input)
	}
	rt.mu.RLock()
	parts := d.Parts
	shards := d.shards
	rt.mu.RUnlock()
	src := shards[0]
	if src == target {
		return nil
	}
	if rt.shards[src].failedErr() != nil || rt.shards[target].failedErr() != nil {
		return fmt.Errorf("runtime: migration needs both shard %d and shard %d healthy", src, target)
	}
	// Quiesce the flow: pause the primary's drain (publishes keep
	// queueing), fence its in-flight batch, ship the stable log tail,
	// and flush both engines, so source and target have processed the
	// exact same tuple prefix. The fence must be waitInflight, not
	// waitDrained: waitDrained returns immediately on a paused shard,
	// and an unfenced mid-drain batch could ingest and append to the
	// replication log after waitIdle sampled its head — exporting state
	// that covers tuples the target later re-applies.
	ps := rt.shards[r.primaryShard()]
	ps.pause()
	defer ps.resume()
	ps.waitInflight()
	r.repl.waitIdle(func(i int) bool { return rt.shards[i].failedErr() == nil })
	_ = rt.shards[src].be.Flush()
	_ = rt.shards[target].be.Flush()

	st, err := rt.shards[src].be.ExportQueryState(parts[0].ID)
	if err != nil {
		return fmt.Errorf("runtime: export from shard %d: %w", src, err)
	}
	ds.mu.Lock()
	replaceID := ""
	if sd, ok := ds.standby[target]; ok {
		replaceID = sd.ID
	}
	ds.mu.Unlock()
	newPart, err := rt.shards[target].be.ImportQuery(ds.req, replaceID, st)
	if err != nil {
		return fmt.Errorf("runtime: import on shard %d: %w", target, err)
	}
	// Swap roles: the migrated part is the new primary, the old primary
	// part stays deployed as its shard's standby (its state is current,
	// and the replicated flow keeps it warm).
	rt.mu.Lock()
	d.Parts = []BackendDeployment{newPart}
	d.shards = []int{target}
	rt.mu.Unlock()
	ds.mu.Lock()
	delete(ds.standby, target)
	ds.standby[src] = parts[0]
	ds.mu.Unlock()
	// Re-attach live subscriptions: the import withdrew the standby
	// part, closing its channels, so the migrated part must be wired
	// back in for emissions from the new primary to flow.
	for _, sub := range ds.subList() {
		if bs, err := rt.shards[target].be.Subscribe(newPart.ID); err == nil {
			sub.attach(bs)
		}
	}
	rt.count("exacml_query_migrations_total",
		"Live query migrations between replica shards.")
	return nil
}
