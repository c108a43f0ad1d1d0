package runtime

import (
	"fmt"
	"strings"
)

// This file is the self-healing control plane for replicated streams:
// failoverShard promotes a replicated stream's most caught-up healthy
// follower when its primary's shard dies, and readoptShard rebuilds a
// shard's streams, query parts and replication membership when a
// restarted dsmsd answers the health probe again.
// Both run on health-hook goroutines, never on the publish hot path.

// failoverShard reacts to shard i entering fail-fast mode: every
// replicated stream whose current primary lives on i is promoted to
// its most caught-up healthy follower, and shipping to i (as a
// follower of other streams) is suspended until re-adoption.
func (rt *Runtime) failoverShard(i int) {
	// Fence: the failed shard's worker may be mid-batch. fail() makes
	// the rest of its queue error out fast, so this wait is short — and
	// after it no late successful ingest can append to a replication
	// log whose tail the promotion below has already flushed.
	rt.shards[i].waitDrained()
	rt.mu.RLock()
	routes := make([]*route, 0, len(rt.routes))
	for _, r := range rt.routes {
		if r.repl != nil {
			routes = append(routes, r)
		}
	}
	rt.mu.RUnlock()
	for _, r := range routes {
		r.repl.pauseFollower(i)
		// fmu serializes promotion: two shards failing concurrently
		// re-check the current primary under the lock, so the second
		// failover sees the first one's promotion and either leaves it
		// alone (new primary healthy) or promotes onward from it.
		r.fmu.Lock()
		if rt.shards[r.primaryShard()].failedErr() != nil {
			rt.promoteRouteLocked(r)
		}
		r.fmu.Unlock()
	}
}

// promoteRouteLocked promotes the route's most caught-up healthy
// follower to primary: the remaining log tail is flushed to it
// synchronously, publishes are re-targeted at it, and each deployed
// query's warm standby part on that shard becomes the primary part.
// With no healthy follower left the route keeps failing fast — exact
// error accounting, bounded blast radius — until a shard re-adopts.
// Caller holds r.fmu.
func (rt *Runtime) promoteRouteLocked(r *route) {
	for _, fi := range r.repl.candidates() {
		if rt.shards[fi].failedErr() != nil {
			continue
		}
		if err := r.repl.promote(fi); err != nil {
			continue // try the next-most-caught-up follower
		}
		r.failTo.Store(int32(fi))
		rt.promoteDeps(r, fi)
		if r.internal {
			rt.promoteStagedParts(r, fi)
		}
		rt.count("exacml_failovers_total",
			"Replicated-stream primary promotions after shard failure.")
		return
	}
}

// promoteDeps moves every query deployed on the route to the promoted
// shard fi: the warm standby part (fed by the replicated flow, so its
// window state tracks the dead primary's) is swapped in as the primary
// part, or the query is redeployed fresh — restarting with an empty
// window, the documented degraded mode — when no standby survived.
// Live subscriptions are (re-)attached either way; their sequence
// watermark drops anything they already saw.
func (rt *Runtime) promoteDeps(r *route, fi int) {
	rt.mu.RLock()
	deps := make(map[string]*Deployment)
	for _, d := range rt.deps {
		if strings.EqualFold(d.Input, r.name) {
			deps[d.ID] = d
		}
	}
	rt.mu.RUnlock()
	for _, d := range deps {
		ds := rt.depStateFor(d.ID)
		if ds == nil || ds.standby == nil {
			continue
		}
		ds.mu.Lock()
		part, warm := ds.standby[fi]
		if warm {
			delete(ds.standby, fi)
		}
		ds.mu.Unlock()
		if !warm {
			nd, err := rt.shards[fi].be.Deploy(ds.req)
			if err != nil {
				continue
			}
			part = nd
		}
		rt.mu.Lock()
		d.Parts = []BackendDeployment{part}
		d.shards = []int{fi}
		rt.mu.Unlock()
		// Re-attach even on the warm path: a standby re-created during a
		// re-adoption carries a part id no live subscription is attached
		// to, and a duplicate attachment to one already covered is
		// harmless (the watermark eats the second copy of each tuple).
		for _, sub := range ds.subList() {
			if bs, err := rt.shards[fi].be.Subscribe(part.ID); err == nil {
				sub.attach(bs)
			}
		}
	}
}

// promoteStagedParts reacts to a partition sub-route's promotion: for
// every staged global-aggregate deployment on the parent stream, the
// partition's part on the promoted shard fi becomes the primary part.
// In the common case that part is a warm standby deployed and attached
// at deploy time — its records already flow into the merge stage and
// dedup by content, so the promotion is pure bookkeeping. A part that
// exists but is not attached (a standby re-created by re-adoption: its
// window state has a gap, so its records were deliberately kept out of
// the merge) or that does not exist at all (the follower was down at
// deploy time) is attached or redeployed now — the documented degraded
// mode, mirroring the single-shard "redeploy fresh with an empty
// window" path: windows already spanning the gap may go unmet until
// the MergeBuffer bound forces them out, later windows are exact again.
func (rt *Runtime) promoteStagedParts(sub *route, fi int) {
	rt.mu.RLock()
	deps := make(map[string]*Deployment)
	for _, d := range rt.deps {
		deps[d.ID] = d
	}
	rt.mu.RUnlock()
	for _, d := range deps {
		ds := rt.depStateFor(d.ID)
		if ds == nil || ds.staged == nil {
			continue
		}
		parent, err := rt.routeFor(ds.input)
		if err != nil || parent.subs == nil {
			continue
		}
		p := -1
		for pi, s := range parent.subs {
			if s == sub {
				p = pi
				break
			}
		}
		if p < 0 {
			continue
		}
		ds.mu.Lock()
		var target *stagedPart
		var req *DeployRequest
		for idx := range ds.staged.parts {
			spp := &ds.staged.parts[idx]
			if spp.partition != p {
				continue
			}
			req = &spp.req
			if spp.shard == fi {
				target = spp
			}
		}
		if target == nil && req != nil {
			if nd, derr := rt.shards[fi].be.Deploy(*req); derr == nil {
				ds.staged.parts = append(ds.staged.parts, stagedPart{
					partition: p, shard: fi, req: *req, dep: nd,
				})
				target = &ds.staged.parts[len(ds.staged.parts)-1]
			}
		}
		if target == nil {
			ds.mu.Unlock()
			continue
		}
		if !target.attached {
			if bs, serr := rt.shards[fi].be.Subscribe(target.dep.ID); serr == nil {
				ds.staged.ms.attachSource(p, bs)
				target.attached = true
			}
		}
		for idx := range ds.staged.parts {
			spp := &ds.staged.parts[idx]
			if spp.partition == p {
				spp.primary = spp.shard == fi
			}
		}
		part, shard := target.dep, target.shard
		ds.mu.Unlock()
		rt.mu.Lock()
		// A replicated staged deploy places one primary part per
		// partition in partition order, so Parts[p] is this partition's.
		if p < len(d.Parts) && p < len(d.shards) {
			parts := append([]BackendDeployment(nil), d.Parts...)
			shards := append([]int(nil), d.shards...)
			parts[p], shards[p] = part, shard
			d.Parts, d.shards = parts, shards
		}
		rt.mu.Unlock()
	}
}

// readoptShard rebuilds shard i's state after its backend came back
// (typically a restarted dsmsd answering the health probe): streams it
// hosts are re-created — with a surviving equal-schema stream adopted
// in place — lost query parts are redeployed, replication membership is resumed, and finally the shard
// leaves fail-fast mode. An error re-marks the backend down, so the
// next probe tick retries the whole sequence.
func (rt *Runtime) readoptShard(i int) error {
	rt.mu.RLock()
	routes := make([]*route, 0, len(rt.routes))
	for _, r := range rt.routes {
		routes = append(routes, r)
	}
	deps := make(map[string]*Deployment)
	for _, d := range rt.deps {
		deps[d.ID] = d
	}
	rt.mu.RUnlock()
	be := rt.shards[i].be

	// 1. Streams: re-create everything this shard hosts (partitioned
	// streams live everywhere; single-shard streams if it is the owner
	// or a replica).
	for _, r := range routes {
		if r.subs != nil {
			// A replicated partitioned parent has no engine stream of its
			// own; its per-partition sub-routes are in the route list and
			// re-adopt individually.
			continue
		}
		if r.keyIdx < 0 && r.shard != i && !r.hasReplica(i) {
			continue
		}
		// Both backends adopt a surviving equal-schema stream, so an
		// error here is a real failure (or a schema-divergent survivor).
		if err := be.CreateStream(r.name, r.schema); err != nil {
			return fmt.Errorf("runtime: readopt shard %d: stream %q: %w", i, r.name, err)
		}
	}

	// 2. Query parts: the restarted process lost its deployments.
	// Partitioned parts are redeployed in place; on replicated routes
	// the shard gets a fresh standby part (fed by replication from here
	// on — its window warms up going forward, and a later promotion
	// re-attaches subscriptions to it).
	for _, d := range deps {
		ds := rt.depStateFor(d.ID)
		if ds == nil {
			continue
		}
		rt.mu.RLock()
		shards := d.shards
		rt.mu.RUnlock()
		if ds.staged != nil {
			if err := rt.readoptStagedParts(i, d, ds); err != nil {
				return err
			}
			continue
		}
		if ds.standby != nil {
			if len(shards) == 1 && shards[0] == i {
				// The shard being re-adopted still carries the primary
				// part's bookkeeping: no healthy follower existed to
				// promote when it died. Redeploy the primary part fresh.
				nd, err := be.Deploy(ds.req)
				if err != nil {
					return fmt.Errorf("runtime: readopt shard %d: query %s: %w", i, d.ID, err)
				}
				rt.mu.Lock()
				d.Parts = []BackendDeployment{nd}
				d.shards = []int{i}
				rt.mu.Unlock()
				for _, sub := range ds.subList() {
					if bs, err := be.Subscribe(nd.ID); err == nil {
						sub.attach(bs)
					}
				}
				continue
			}
			r, err := rt.routeFor(ds.input)
			if err != nil || (!r.hasReplica(i) && r.shard != i) {
				continue
			}
			if nd, err := be.Deploy(ds.req); err == nil {
				ds.mu.Lock()
				ds.standby[i] = nd
				ds.mu.Unlock()
			}
			continue
		}
		for j, si := range shards {
			if si != i {
				continue
			}
			nd, err := be.Deploy(ds.req)
			if err != nil {
				return fmt.Errorf("runtime: readopt shard %d: query %s: %w", i, d.ID, err)
			}
			rt.mu.Lock()
			parts := append([]BackendDeployment(nil), d.Parts...)
			parts[j] = nd
			d.Parts = parts
			rt.mu.Unlock()
			for _, sub := range ds.subList() {
				if bs, err := be.Subscribe(nd.ID); err == nil {
					sub.attach(bs)
				}
			}
		}
	}

	// 3. Replication membership: resume shipping to this shard where it
	// follows, and enlist a deposed original owner as a follower of its
	// own stream (no automatic failback — the promoted primary keeps
	// serving; MigrateQuery moves queries back deliberately). A rejoined
	// follower restarts from the oldest retained log position; anything
	// trimmed before that is its permanent, counted gap.
	for _, r := range routes {
		if r.repl == nil {
			continue
		}
		if r.failTo.Load() == int32(i) {
			// Shard i is this route's current promoted primary: it died
			// after promotion with no healthy candidate left and has now
			// come back. Publishes drain straight into its engine, so
			// enlisting it as a follower of its own stream would ship
			// every tuple back to it through the replication log —
			// double-ingesting the flow and corrupting window state.
			continue
		}
		switch {
		case r.hasReplica(i):
			if r.repl.hasFollower(i) {
				r.repl.rejoin(i)
			} else {
				r.repl.addFollower(i, be, r.repl.basePos())
			}
		case r.shard == i && r.failTo.Load() >= 0:
			if !r.repl.hasFollower(i) {
				r.repl.addFollower(i, be, r.repl.basePos())
			}
		}
	}

	// 4. Leave fail-fast mode last, so publishes only flow once the
	// shard's streams and queries are back.
	rt.shards[i].unfail()
	rt.count("exacml_shard_readoptions_total",
		"Restarted shard backends re-adopted into the topology.")
	return nil
}

// readoptStagedParts rebuilds a staged global-aggregate deployment's
// parts lost with shard i. A part whose partition shard i still
// primaries (replication off, or a replicated partition that never
// promoted away) is redeployed and its record stream re-attached — the
// documented degraded restart: its windows begin empty, so windows
// spanning the outage can go unmet until the merge stage's buffer
// bound, and later windows are exact again. A part that is now a
// follower's standby is redeployed warm but left DETACHED: replication
// warms its window going forward, but its state gap means records it
// would emit for gap-spanning windows are wrong, and the merge stage's
// first-record-wins dedup could pick them over the primary's. Only a
// promotion attaches it (accepting the gap as that path's degraded
// mode). Missing follower standbys are also re-created here.
func (rt *Runtime) readoptStagedParts(i int, d *Deployment, ds *depState) error {
	be := rt.shards[i].be
	parent, err := rt.routeFor(ds.input)
	if err != nil {
		return nil // stream dropped under us; Withdraw cleans up
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for idx := range ds.staged.parts {
		sp := &ds.staged.parts[idx]
		if sp.shard != i {
			continue
		}
		primaryNow := true
		if parent.subs != nil {
			primaryNow = parent.subs[sp.partition].primaryShard() == i
		}
		old := sp.dep
		nd, derr := be.Deploy(sp.req)
		if derr != nil {
			return fmt.Errorf("runtime: readopt shard %d: query %s partition %d: %w", i, d.ID, sp.partition, derr)
		}
		sp.dep = nd
		sp.primary = primaryNow
		sp.attached = false
		if !primaryNow {
			continue
		}
		if bs, serr := be.Subscribe(nd.ID); serr == nil {
			ds.staged.ms.attachSource(sp.partition, bs)
			sp.attached = true
		}
		rt.mu.Lock()
		for j := range d.Parts {
			if d.Parts[j].ID == old.ID && j < len(d.shards) && d.shards[j] == i {
				parts := append([]BackendDeployment(nil), d.Parts...)
				parts[j] = nd
				d.Parts = parts
				break
			}
		}
		rt.mu.Unlock()
	}
	// Re-create follower standbys this shard should hold but lost
	// entirely (it was down when the query deployed).
	if parent.subs == nil {
		return nil
	}
	for p, sub := range parent.subs {
		if sub.primaryShard() == i || (!sub.hasReplica(i) && sub.shard != i) {
			continue
		}
		exists := false
		var req *DeployRequest
		for idx := range ds.staged.parts {
			spp := &ds.staged.parts[idx]
			if spp.partition != p {
				continue
			}
			req = &spp.req
			if spp.shard == i {
				exists = true
			}
		}
		if exists || req == nil {
			continue
		}
		if nd, derr := be.Deploy(*req); derr == nil {
			ds.staged.parts = append(ds.staged.parts, stagedPart{
				partition: p, shard: i, req: *req, dep: nd,
			})
		}
	}
	return nil
}
