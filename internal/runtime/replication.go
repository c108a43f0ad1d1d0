package runtime

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"repro/internal/stream"
)

// Replication constants.
const (
	// DefaultReplicationLog is the default retained replication-log
	// bound per replicated stream (tuples). A follower that falls
	// further behind than the retained tail takes a gap: the missed
	// tuples are counted (ReplicaLag.Gaps) and skipped, and the
	// follower's copy of the stream diverges until the next failover
	// re-seeds it.
	DefaultReplicationLog = 65536
	// replShipBatch is the maximum tuples per Replicate call.
	replShipBatch = 512
	// replRetryDelay paces ship retries against an erroring follower.
	replRetryDelay = 10 * time.Millisecond
)

// ReplicaLag is one follower's replication position for stats and
// telemetry. The counters are cumulative per shard slot, across the
// follower's restarts.
type ReplicaLag struct {
	// Shard is the follower's shard index.
	Shard int
	// Lag is the number of accepted tuples the follower has not yet
	// acknowledged.
	Lag uint64
	// Gaps counts tuples the follower permanently missed because the
	// bounded log trimmed past its position.
	Gaps uint64
	// Errors counts ship attempts that failed in transport.
	Errors uint64
	// Resyncs counts replies that put the follower somewhere its last
	// acknowledged ship did not leave it (a restarted or re-created
	// follower), plus results of an earlier incarnation that were
	// dropped.
	Resyncs uint64
	// Paused reports whether shipping is suspended (the follower's
	// shard is down).
	Paused bool
}

// replAlg is the replication algebra of one replicated stream: a
// single-threaded state machine with no locks, goroutines or clock
// behind it. It holds the stream's bounded log, named by a log id, and
// one record per follower, and it turns appends, joins, pauses, ship
// results and promotions into ship requests under one rule: a
// follower's position is only what the follower's own reply states for
// this log.
//
// So a follower that joins (at stream creation, or again after its
// shard came back) has no position until its first reply, and its
// first ship is an empty probe; so does one whose ship failed in
// transport, which may or may not have landed. Every join starts a new
// incarnation, and a result of an earlier one is dropped: it may
// describe an engine that no longer exists. A follower whose reported
// position fell below the retained log takes the trimmed tuples as a
// gap, declared on the ship (reset) and counted once a reply shows the
// follower took it, so gaps are only ever measured from a reported
// position.
type replAlg struct {
	id   uint64         // this log's id
	log  []stream.Tuple // retained tail
	base uint64         // absolute position of log[0]
	next uint64         // absolute position one past the last appended tuple
	max  int
	fol  map[int]*replFollower
}

// replFollower is one follower's state in replAlg.
type replFollower struct {
	inc     uint64 // incarnation, bumped by every join
	pos     uint64 // last position the follower reported
	known   bool   // pos was reported in the current incarnation, since the last transport error
	busy    bool   // a ship is outstanding
	paused  bool   // the follower's shard is down
	promote bool   // ship to the log head, then leave the follower set
	// gapFrom, gapTo is a gap declared on a ship whose reply has not
	// come back: counted once a reply shows the follower at or past
	// gapTo, dropped by one that shows it short.
	gapFrom, gapTo uint64

	gaps, errs, resyncs uint64
}

// shipReq is one Replicate call of incarnation inc: a run of the log
// starting at base, or an empty probe.
type shipReq struct {
	shard int
	inc   uint64
	base  uint64
	reset bool
	probe bool
	ts    []stream.Tuple
}

func newReplAlg(id uint64, maxLog int) replAlg {
	if maxLog <= 0 {
		maxLog = DefaultReplicationLog
	}
	return replAlg{id: id, max: maxLog, fol: map[int]*replFollower{}}
}

// append adds tuples the alg may keep (they must not alias publisher-
// or engine-owned storage), trimming lazily with hysteresis so steady
// state does not recopy the whole window on every append.
func (a *replAlg) append(ts []stream.Tuple) {
	a.log = append(a.log, ts...)
	a.next += uint64(len(ts))
	if len(a.log) > a.max+a.max/2 {
		over := len(a.log) - a.max
		a.base += uint64(over)
		a.log = append(a.log[:0:0], a.log[over:]...)
	}
}

// join enlists shard as a follower, or re-enlists it in a new
// incarnation, with its position unknown until its first reply. It
// reports whether the follower is new.
func (a *replAlg) join(shard int) bool {
	f, ok := a.fol[shard]
	if !ok {
		f = &replFollower{}
		a.fol[shard] = f
	}
	f.inc++
	f.known, f.paused = false, false
	return !ok
}

// pause suspends shipping to shard.
func (a *replAlg) pause(shard int) {
	if f, ok := a.fol[shard]; ok {
		f.paused = true
	}
}

// ship returns shard's next ship, if it has one: a probe while its
// position is unknown, otherwise the log from its position on.
func (a *replAlg) ship(shard int) (shipReq, bool) {
	f, ok := a.fol[shard]
	if !ok || f.busy || f.paused || (f.known && f.pos >= a.next) {
		return shipReq{}, false
	}
	f.busy = true
	req := shipReq{shard: shard, inc: f.inc}
	if !f.known {
		req.probe = true
		return req, true
	}
	req.base = max(f.pos, a.base)
	if req.reset = f.pos < a.base; req.reset {
		f.gapFrom, f.gapTo = f.pos, req.base
	}
	lo := int(req.base - a.base)
	req.ts = cloneTuples(a.log[lo:min(lo+replShipBatch, len(a.log))])
	return req, true
}

// result applies the reply to req: the follower's position pos, or a
// transport error, after which the follower's position is unknown
// until it replies again. A result of an earlier incarnation only
// settles a declared gap.
func (a *replAlg) result(req shipReq, pos uint64, err error) {
	f, ok := a.fol[req.shard]
	if !ok {
		return
	}
	f.busy = false
	if err != nil {
		f.errs++
		if req.inc == f.inc {
			f.known, f.promote = false, false
		}
		return
	}
	if f.gapTo > 0 {
		if pos >= f.gapTo {
			f.gaps += f.gapTo - f.gapFrom
		}
		f.gapFrom, f.gapTo = 0, 0
	}
	if req.inc != f.inc {
		f.resyncs++
		return
	}
	want := f.pos
	if !req.probe {
		want = req.base + uint64(len(req.ts))
	}
	if pos != want {
		f.resyncs++
	}
	f.pos, f.known = pos, true
}

// promote starts shard's promotion: it is shipped to the log head and
// then leaves the follower set (see settle).
func (a *replAlg) promote(shard int) {
	if f, ok := a.fol[shard]; ok {
		f.promote = true
	}
}

// settle completes shard's promotion once it has reported the log head,
// removing it from the follower set. It returns an error if the
// promotion cannot complete: the shard is down, or a ship failed.
func (a *replAlg) settle(shard int) (bool, error) {
	f, ok := a.fol[shard]
	switch {
	case !ok:
		return false, fmt.Errorf("runtime: shard %d is not a follower", shard)
	case f.paused || !f.promote:
		f.promote = false
		return false, fmt.Errorf("runtime: promotion of shard %d failed", shard)
	case f.known && !f.busy && f.pos >= a.next:
		delete(a.fol, shard)
		return true, nil
	}
	return false, nil
}

// replicator runs one replicated stream's replAlg: one shipper goroutine
// per follower ships what the algebra asks for, so each follower has
// exactly one writer. Appends happen on the primary's shard drain path,
// after a successful engine ingest, so log order is exactly the
// primary engine's ingest order: a follower applying the log through
// its own engine assigns identical sequence numbers, which is what
// makes promoted window state and emission provenance bit-compatible
// with the primary's.
type replicator struct {
	stream string

	mu     sync.Mutex
	cond   *sync.Cond // broadcast on every change of alg or closed
	alg    replAlg
	closed bool
}

// newReplicator mints a fresh log id, so a follower that survived an
// earlier runtime's log starts this one from position 0.
func newReplicator(streamName string, maxLog int) *replicator {
	r := &replicator{stream: streamName, alg: newReplAlg(rand.Uint64()|1, maxLog)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// join enlists shard as a follower, or re-enlists it after its shard
// came back: its position is unknown until it replies.
func (r *replicator) join(shard int, target ShardBackend) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if r.alg.join(shard) {
		go r.shipLoop(shard, r.alg.fol[shard], target)
	}
	r.cond.Broadcast()
}

// follows reports whether shard is in the follower set. A shard that
// should follow but is not was a primary of the stream.
func (r *replicator) follows(shard int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.alg.fol[shard]
	return ok
}

// pauseFollower suspends shipping to a follower whose shard went down.
func (r *replicator) pauseFollower(shard int) {
	r.mu.Lock()
	r.alg.pause(shard)
	r.cond.Broadcast()
	r.mu.Unlock()
}

// append adds tuples to the log (the caller passes ownership). Called
// from the primary's shard worker after a successful ingest, so appends
// are naturally serialized in engine ingest order.
func (r *replicator) append(ts []stream.Tuple) {
	if len(ts) == 0 {
		return
	}
	r.mu.Lock()
	r.alg.append(ts)
	r.cond.Broadcast()
	r.mu.Unlock()
}

// shipLoop is follower f's only shipper: it runs the algebra's ships for
// shard until f leaves the follower set or the replicator closes,
// pausing between retries against an erroring follower.
func (r *replicator) shipLoop(shard int, f *replFollower, target ShardBackend) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		// A promoted follower that rejoins later is a new f with its
		// own shipper.
		if r.closed || r.alg.fol[shard] != f {
			return
		}
		req, ok := r.alg.ship(shard)
		if !ok {
			r.cond.Wait()
			continue
		}
		r.mu.Unlock()
		pos, err := target.Replicate(r.stream, r.alg.id, req.base, req.reset, req.ts)
		r.mu.Lock()
		r.alg.result(req, pos, err)
		r.cond.Broadcast()
		if err != nil && !r.closed && !f.paused {
			r.mu.Unlock()
			time.Sleep(replRetryDelay)
			r.mu.Lock()
		}
	}
}

// candidates returns the unpaused followers, most caught up first
// (ties by shard index): the promotion preference order.
func (r *replicator) candidates() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for si, f := range r.alg.fol {
		if !f.paused {
			out = append(out, si)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := r.alg.fol[out[i]].pos, r.alg.fol[out[j]].pos
		return pi > pj || pi == pj && out[i] < out[j]
	})
	return out
}

// promote ships the remaining log to a follower and removes it from
// the follower set: it is the new primary, and the primary's tuples
// reach it through its own shard drain from now on.
func (r *replicator) promote(shard int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.alg.promote(shard)
	for !r.closed {
		done, err := r.alg.settle(shard)
		if err != nil || done {
			r.cond.Broadcast()
			return err
		}
		r.cond.Wait()
	}
	return errClosed
}

// waitIdle blocks until every live follower whose shard the predicate
// reports healthy has reported the full log. Part of Runtime.Flush for
// replicated streams.
func (r *replicator) waitIdle(healthy func(shard int) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.closed {
		idle := true
		for si, f := range r.alg.fol {
			idle = idle && (f.paused || !healthy(si) || f.known && f.pos >= r.alg.next)
		}
		if idle {
			return
		}
		r.cond.Wait()
	}
}

// lag snapshots every follower's position for stats and telemetry.
func (r *replicator) lag() []ReplicaLag {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ReplicaLag, 0, len(r.alg.fol))
	for si, f := range r.alg.fol {
		l := ReplicaLag{Shard: si, Gaps: f.gaps, Errors: f.errs, Resyncs: f.resyncs, Paused: f.paused}
		if f.pos < r.alg.next {
			l.Lag = r.alg.next - f.pos
		}
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// close stops every shipper (a nil replicator, of an unreplicated
// stream, has none).
func (r *replicator) close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// cloneTuples deep-copies a batch: the engine a batch flows into seals
// (and may canonicalize) it in place, and publishers may reuse their
// own slices, so the replication log and each ship must own both the
// tuple headers and the value storage.
func cloneTuples(ts []stream.Tuple) []stream.Tuple {
	out := make([]stream.Tuple, len(ts))
	for i, t := range ts {
		t.Values = append([]stream.Value(nil), t.Values...)
		out[i] = t
	}
	return out
}
