package runtime

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/audit"
	"repro/internal/telemetry"
)

// This file is the self-healing control plane. Every health transition
// of a shard — its remote backend's, or FailShard and ReadoptShard —
// is an event on the shard's health stream, applied one at a time in
// order off the publish path, so a re-adoption never overlaps the
// failover it ends, and a shard comes back as a follower wherever
// another can serve: leadership moves only by promotion.

// healthEvent is one health transition; an operator call waits on done.
type healthEvent struct {
	kind string
	err  error
	done chan error
}

// healthStream applies one shard's events in order on one goroutine,
// started when an event reaches an empty queue and gone once it is
// empty again (Runtime.Close fences it). post never blocks: a backend
// posts under its own lock, and publishes never wait on the stream.
type healthStream struct {
	mu    sync.Mutex
	q     []healthEvent
	apply func(healthEvent) error
}

func (h *healthStream) post(ev healthEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.q = append(h.q, ev); len(h.q) == 1 {
		go h.drain()
	}
}

// drain applies the queued events in order; each leaves q once applied.
func (h *healthStream) drain() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.q) > 0 {
		ev := h.q[0]
		h.mu.Unlock()
		err := h.apply(ev)
		if ev.done != nil {
			ev.done <- err
		}
		h.mu.Lock()
		h.q = h.q[1:]
	}
}

// applyHealth records one event of shard i (counter and audit chain,
// in stream order), applies it, and tells the backend's observer. An
// event of no kind is a fence: it applies once every earlier one has.
func (rt *Runtime) applyHealth(i int, ev healthEvent) error {
	if ev.kind == "" {
		return nil
	}
	rt.noteHealthEvent(i, ev.kind, ev.err)
	s, err := rt.shards[i], ev.err
	rb, _ := s.be.(*RemoteBackend)
	switch ev.kind {
	case "down":
		rt.failoverShard(i, ev.err)
	case "readopted":
		// Depose the failed shard itself first, wherever a healthy
		// follower can serve, so it comes back as a follower; then let
		// it take over the routes whose primary is still down.
		rt.deposeFailedPrimaries()
		if err = rt.readoptShard(i); err != nil && rb != nil {
			rb.readoptFailed(err)
		}
		if err == nil {
			rt.deposeFailedPrimaries()
		}
	}
	if rb != nil && rb.opts.OnHealthEvent != nil {
		rb.opts.OnHealthEvent(ev.kind, err)
	}
	return err
}

// noteHealthEvent counts a shard's health transition and, unless it is
// a per-attempt dial, appends it to the audit chain.
func (rt *Runtime) noteHealthEvent(shard int, event string, err error) {
	rt.reg.Counter("exacml_shard_health_events_total",
		"Shard health transitions, by shard and event "+
			"(dial, connected, reconnected, down, readopted).",
		telemetry.L("shard", strconv.Itoa(shard)), telemetry.L("event", event)).Inc()
	if event == "dial" || rt.opts.Audit == nil {
		return
	}
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	_, _ = rt.opts.Audit.Append(audit.Event{
		Kind:     "health",
		Resource: fmt.Sprintf("shard/%d", shard),
		Action:   event,
		Detail:   detail,
	})
}

// FailShard puts shard i into fail-fast mode with err, as its remote
// backend's "down" does: each replicated stream it serves as primary
// fails over to a healthy follower. It returns once applied.
func (rt *Runtime) FailShard(i int, err error) {
	_ = rt.await(i, healthEvent{kind: "down", err: err})
}

// ReadoptShard re-adopts shard i, as its remote backend's "readopted"
// does: a failed shard is deposed wherever a healthy follower can take
// over, then brought in line with the tables (readoptShard). It returns
// the re-adoption's error once applied.
func (rt *Runtime) ReadoptShard(i int) error {
	if i < 0 || i >= len(rt.shards) {
		return fmt.Errorf("runtime: shard %d out of range", i)
	}
	return rt.await(i, healthEvent{kind: "readopted"})
}

func (rt *Runtime) await(i int, ev healthEvent) error {
	ev.done = make(chan error, 1)
	rt.shards[i].health.post(ev)
	return <-ev.done
}

// routeList snapshots the routes keep selects.
func (rt *Runtime) routeList(keep func(*route) bool) []*route {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var out []*route
	for _, r := range rt.routes {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// replRoutes lists the replicated routes.
func (rt *Runtime) replRoutes() []*route {
	return rt.routeList(func(r *route) bool { return r.repl != nil })
}

// failoverShard applies a "down" of shard i: fail-fast mode, shipping
// to it as a follower suspended until re-adoption, and every stream it
// serves as primary promoted.
func (rt *Runtime) failoverShard(i int, err error) {
	rt.shards[i].fail(err)
	// Fence: the failed shard's drain may be mid-batch. fail() makes
	// the rest of its queue error out fast, so this wait is short — and
	// after it no late successful ingest can append to a replication
	// log whose tail the promotion below has already flushed.
	rt.shards[i].waitDrained()
	routes := rt.replRoutes()
	for _, r := range routes {
		r.repl.pauseFollower(i)
	}
	rt.depose(i, routes)
}

// deposeFailedPrimaries promotes a healthy follower on every replicated
// route whose primary is failed: the level-triggered rule that lets a
// follower re-adopted while its primary stays down take the stream
// over, where the primary's own down found no healthy follower.
func (rt *Runtime) deposeFailedPrimaries() {
	for _, r := range rt.replRoutes() {
		if p := r.primaryShard(); rt.shards[p].failedErr() != nil {
			rt.depose(p, []*route{r})
		}
	}
}

// depose promotes each route whose current primary is shard i to its
// most caught-up healthy follower; a route with none keeps i. fmu
// serializes this with other shards' health goroutines, and the
// primary is re-read under it.
func (rt *Runtime) depose(i int, routes []*route) {
	for _, r := range routes {
		r.fmu.Lock()
		if r.primaryShard() == i {
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
		rt.promote(r, fi)
		rt.count("exacml_failovers_total",
			"Replicated-stream primary promotions after shard failure.")
		return
	}
}

// promote moves route r's partition onto its promoted shard fi in
// every query reading it. The query's part already on fi — normally a
// warm standby fed by the replicated flow, so its window state tracks
// the dead primary's — becomes the partition's primary; with none
// there, one is deployed fresh, restarting from an empty window (the
// documented degraded mode). A part that was not live starts feeding
// the merge stage or the live subscriptions now; a live one already
// does, and the watermark (or the merge's content dedup) drops what
// consumers already saw.
func (rt *Runtime) promote(r *route, fi int) {
	for _, ds := range rt.depList() {
		p := ds.partitionOf(r)
		if p < 0 {
			continue
		}
		ds.mu.Lock()
		k, j := ds.find(p, fi), ds.find(p, -1)
		if k < 0 && j >= 0 {
			if nd, err := rt.shards[fi].be.PutPart(ds.parts[j].dep.ID, ds.parts[j].req, nil); err == nil {
				ds.parts = append(ds.parts, part{p: p, shard: fi, req: ds.parts[j].req, dep: nd})
				k = len(ds.parts) - 1
			}
		}
		if k >= 0 {
			rt.promoteLocked(ds, k)
		}
		ds.mu.Unlock()
	}
}

// readoptShard brings shard i back in line with the runtime's tables
// after its backend came back (a restarted dsmsd, or one a partition
// hid, answering the health probe): streams it hosts are re-created —
// with a surviving equal-schema stream adopted in place — the parts the
// tables want there are put and the runtime's parts no table holds are
// deleted, replication membership is resumed, and finally the shard
// leaves fail-fast mode. Puts and deletes are by name, so this
// converges whatever the backend still runs. An error leaves the shard
// failed (and a remote backend down, so its probe retries).
func (rt *Runtime) readoptShard(i int) error {
	routes := rt.routeList(func(*route) bool { return true })
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
		// A shard that should follow the stream but is not in its
		// follower set was its primary: its engine holds the tuples it
		// ingested as one, which moved no replication position. It is
		// re-created empty (its parts are redeployed fresh below) and
		// rejoins as a restarted follower, its trimmed prefix a gap.
		if r.repl != nil && r.primaryShard() != i && !r.repl.follows(i) {
			_ = be.DropStream(r.name)
		}
		// Both backends adopt a surviving equal-schema stream, so an
		// error here is a real failure (or a schema-divergent survivor).
		if err := be.CreateStream(r.name, r.schema); err != nil {
			return fmt.Errorf("runtime: readopt shard %d: stream %q: %w", i, r.name, err)
		}
	}

	// 2. Query parts: put every part the tables want here (replacing a
	// survivor of the same name), then delete what a withdraw during the
	// outage left behind.
	for _, ds := range rt.depList() {
		if err := rt.readoptParts(ds, i); err != nil {
			return err
		}
	}
	if err := rt.deleteOrphans(i); err != nil {
		return fmt.Errorf("runtime: readopt shard %d: %w", i, err)
	}

	// 3. Replication membership: rejoin this shard where it follows,
	// and enlist a deposed original owner as a follower of its own
	// stream (no automatic failback — the promoted primary keeps
	// serving; MigrateQuery moves queries back deliberately). Either way
	// its position is what its first reply states.
	for _, r := range routes {
		if r.repl == nil || r.primaryShard() == i {
			// Shard i is not a follower, or it is this route's current
			// promoted primary come back: publishes drain straight into its
			// engine, and enlisting it as a follower of its own stream
			// would double-ingest the flow.
			continue
		}
		if r.shard == i || r.hasReplica(i) {
			r.repl.join(i, be)
		}
	}

	// 4. Leave fail-fast mode last, so publishes only flow once the
	// shard's streams and queries are back.
	rt.shards[i].unfail()
	rt.count("exacml_shard_readoptions_total",
		"Restarted shard backends re-adopted into the topology.")
	return nil
}

// readoptParts puts query ds's parts on re-adopted shard i, replacing
// any the shard still runs, including a part it should hold but never
// got (it was down when the query deployed). A part on the shard
// serving its partition is promoted:
// live again, with an empty window — the documented degraded restart.
// A follower's part stays not-live: replication warms it going
// forward, but its state gap means output for gap-spanning windows
// would be wrong, and it must not race the primary's; only a promotion
// starts it feeding. A follower part that cannot be placed is dropped
// from the table (best effort, as at deploy).
func (rt *Runtime) readoptParts(ds *depState, i int) error {
	be := rt.shards[i].be
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for p := 0; p < ds.r.partitions(); p++ {
		primary, followers := ds.r.placement(p)
		k, j := ds.find(p, i), ds.find(p, -1)
		if j < 0 || (primary != i && !slices.Contains(followers, i)) {
			continue
		}
		nd, err := be.PutPart(ds.parts[j].dep.ID, ds.parts[j].req, nil)
		if err != nil {
			if primary == i {
				return fmt.Errorf("runtime: readopt shard %d: query %s partition %d: %w", i, ds.id, p, err)
			}
			if k >= 0 {
				ds.parts = slices.Delete(ds.parts, k, k+1)
			}
			continue
		}
		if k < 0 {
			ds.parts = append(ds.parts, part{p: p, shard: i, req: ds.parts[j].req})
			k = len(ds.parts) - 1
		}
		ds.parts[k].dep, ds.parts[k].live = nd, false
		if primary == i {
			rt.promoteLocked(ds, k)
		}
	}
	return nil
}

// deleteOrphans deletes every part on shard i that is in this runtime's
// namespace (see partName) but that no part table holds there: left
// running by a withdraw while the shard was down, or by an earlier life
// of the runtime. Each deletion counts in
// exacml_orphan_parts_deleted_total.
func (rt *Runtime) deleteOrphans(i int) error {
	be := rt.shards[i].be
	names, err := be.ListParts()
	if err != nil {
		return err
	}
	// The deploys in flight are read after the listing and before the
	// tables: a listed part was put before, so its query is deploying,
	// deployed, or gone. held keys part names and deploying query ids,
	// which cannot collide.
	rt.mu.RLock()
	held := make(map[string]bool, len(rt.deploying))
	for id := range rt.deploying {
		held[id] = true
	}
	rt.mu.RUnlock()
	for _, ds := range rt.depList() {
		ds.mu.Lock()
		for _, pt := range ds.parts {
			if pt.shard == i {
				held[pt.dep.ID] = true
			}
		}
		ds.mu.Unlock()
	}
	for _, name := range names {
		id, ours := rt.partQuery(name)
		if !ours || held[name] || held[id] {
			continue
		}
		// A racing teardown may have deleted it already.
		if be.DeletePart(name) == nil {
			rt.count("exacml_orphan_parts_deleted_total",
				"Parts no table holds, deleted from a shard at re-adoption or boot.",
				telemetry.L("shard", strconv.Itoa(i)))
		}
	}
	return nil
}

// DeleteOrphanParts deletes, on every healthy shard, the parts of this
// runtime's namespace that no table holds (the sweep re-adoption ends
// with). core.Boot runs it at startup, after the durable restore if
// there is one, so a dsmsd that survived the runtime's previous life
// runs only what the catalog holds; a shard it cannot reach sweeps at
// its re-adoption instead.
func (rt *Runtime) DeleteOrphanParts() {
	for i, s := range rt.shards {
		if s.failedErr() == nil && s.be.Healthy() {
			_ = rt.deleteOrphans(i)
		}
	}
}
