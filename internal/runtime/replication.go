package runtime

import (
	"fmt"
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
// telemetry.
type ReplicaLag struct {
	// Shard is the follower's shard index.
	Shard int
	// Lag is the number of accepted tuples the follower has not yet
	// acknowledged.
	Lag uint64
	// Gaps counts tuples the follower permanently missed because the
	// bounded log trimmed past its position.
	Gaps uint64
	// Errors counts failed ship attempts.
	Errors uint64
	// Paused reports whether shipping is suspended (the follower's
	// shard is down).
	Paused bool
}

// followerState tracks one follower of a replicated stream.
type followerState struct {
	shard  int
	target ShardBackend

	// shipMu serializes Replicate calls to this follower, so a
	// promotion flush cannot interleave with an in-flight ship (the
	// receiver's base-position dedup requires one writer at a time).
	shipMu sync.Mutex

	// The rest is guarded by replicator.mu.
	sent uint64 // absolute position acked by the follower
	gaps uint64
	errs uint64
	// reset is set when tailLocked advanced sent over a trimmed gap:
	// the next ship must declare the gap to the receiver (Replicate's
	// reset flag) so it jumps its applied position forward instead of
	// refusing the base-ahead batch forever. Cleared on a successful
	// ship.
	reset  bool
	paused bool // follower's shard is down; shipping suspended
	gone   bool // follower removed (promoted, or replicator closed)
}

// replicator owns one replicated stream's bounded tuple log and the
// per-follower shipper goroutines draining it. Appends happen on the
// primary's shard drain path — after a successful engine ingest — so
// log order is exactly the primary engine's ingest order: a follower
// applying the log through its own engine assigns identical sequence
// numbers, which is what makes promoted window state and emission
// provenance bit-compatible with the primary's.
type replicator struct {
	stream string

	mu   sync.Mutex
	cond *sync.Cond // broadcast on append, ack advance, membership change
	log  []stream.Tuple
	base uint64 // absolute position of log[0]
	next uint64 // absolute position one past the last appended tuple
	max  int
	// closed stops the shippers; set once on runtime close.
	closed    bool
	followers map[int]*followerState
}

func newReplicator(streamName string, maxLog int) *replicator {
	if maxLog <= 0 {
		maxLog = DefaultReplicationLog
	}
	r := &replicator{stream: streamName, max: maxLog, followers: map[int]*followerState{}}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// addFollower registers a follower starting at the given absolute
// position and starts its shipper. Re-adding an existing follower
// rejoins it instead (see rejoin).
func (r *replicator) addFollower(shard int, target ShardBackend, from uint64) {
	r.mu.Lock()
	if f, ok := r.followers[shard]; ok {
		f.paused = false
		f.sent = from
		r.cond.Broadcast()
		r.mu.Unlock()
		return
	}
	f := &followerState{shard: shard, target: target, sent: from}
	r.followers[shard] = f
	r.mu.Unlock()
	go r.shipLoop(f)
}

// rejoin resumes shipping to a follower whose shard came back. The
// follower restarts from the oldest retained log position: its engine
// was re-created empty, so the retained tail warm-starts it, and the
// tuples trimmed before that are counted as its gap.
func (r *replicator) rejoin(shard int) {
	r.mu.Lock()
	if f, ok := r.followers[shard]; ok && !f.gone {
		f.paused = false
		if f.sent > r.base {
			f.sent = r.base // restarted empty: replay the retained tail
		}
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// pauseFollower suspends shipping to a follower whose shard went down.
func (r *replicator) pauseFollower(shard int) {
	r.mu.Lock()
	if f, ok := r.followers[shard]; ok {
		f.paused = true
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// basePos returns the absolute position of the oldest retained log
// entry — where a re-adopted shard rejoins the flow.
func (r *replicator) basePos() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.base
}

// hasFollower reports whether shard is a current follower.
func (r *replicator) hasFollower(shard int) bool {
	r.mu.Lock()
	_, ok := r.followers[shard]
	r.mu.Unlock()
	return ok
}

// append adds tuples to the log (the caller passes ownership; tuples
// must not alias publisher- or engine-owned storage). Called from the
// primary's shard worker after a successful ingest, so appends are
// naturally serialized in engine ingest order.
func (r *replicator) append(ts []stream.Tuple) {
	if len(ts) == 0 {
		return
	}
	r.mu.Lock()
	r.log = append(r.log, ts...)
	r.next += uint64(len(ts))
	// Trim lazily with hysteresis so steady state does not recopy the
	// whole window on every append.
	if len(r.log) > r.max+r.max/2 {
		over := len(r.log) - r.max
		r.base += uint64(over)
		r.log = append(r.log[:0:0], r.log[over:]...)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// tailLocked slices the next batch for a follower, advancing it over a
// trimmed gap first. The returned tuples have freshly cloned Values
// slices: the receiving engine seals (and may canonicalize) them in
// place, and the log's own storage must stay pristine for other
// followers and future rejoins. Caller holds r.mu.
func (r *replicator) tailLocked(f *followerState, max int) ([]stream.Tuple, uint64) {
	if f.sent < r.base {
		f.gaps += r.base - f.sent
		f.sent = r.base
		f.reset = true // declare the trimmed gap on the next ship
	}
	lo := int(f.sent - r.base)
	hi := lo + max
	if hi > len(r.log) {
		hi = len(r.log)
	}
	if lo >= hi {
		return nil, f.sent
	}
	out := make([]stream.Tuple, hi-lo)
	for i, t := range r.log[lo:hi] {
		t.Values = append([]stream.Value(nil), t.Values...)
		out[i] = t
	}
	return out, f.sent
}

// shipLoop is one follower's shipper: it drains the log tail to the
// follower in bounded batches, retrying on error, sleeping while the
// follower is paused or caught up.
func (r *replicator) shipLoop(f *followerState) {
	for {
		r.mu.Lock()
		for !r.closed && !f.gone && (f.paused || f.sent >= r.next) {
			r.cond.Wait()
		}
		if r.closed || f.gone {
			r.mu.Unlock()
			return
		}
		batch, base := r.tailLocked(f, replShipBatch)
		reset := f.reset
		r.mu.Unlock()
		if len(batch) == 0 {
			continue
		}
		f.shipMu.Lock()
		acked, err := f.target.Replicate(r.stream, base, reset, batch)
		var status uint64
		statusOK := false
		if err != nil {
			// A ship error may mean the follower's applied position is
			// not what we think — most notably a follower that
			// restarted empty and refused the batch with a replica-gap
			// error. Ask for its authoritative position and resync, so
			// the next tail re-feeds from where the follower really is
			// (the retained log replays the missing prefix; anything
			// trimmed past is counted as a gap by tailLocked and
			// declared to the follower on the next ship).
			if st, serr := f.target.ReplicaStatus(r.stream); serr == nil {
				status, statusOK = st, true
			}
		}
		f.shipMu.Unlock()
		r.mu.Lock()
		if err != nil {
			f.errs++
			if statusOK && status != f.sent {
				f.sent = status
				r.cond.Broadcast()
			}
		} else {
			if reset {
				f.reset = false
			}
			if acked > f.sent {
				f.sent = acked
				r.cond.Broadcast()
			}
		}
		paused, closed := f.paused, r.closed
		r.mu.Unlock()
		if err != nil && !closed && !paused {
			time.Sleep(replRetryDelay)
		}
	}
}

// candidates returns the follower shard indices ordered most-caught-up
// first (ties by shard index), excluding paused followers — the
// promotion preference order.
func (r *replicator) candidates() []int {
	r.mu.Lock()
	type cand struct {
		shard int
		sent  uint64
	}
	cs := make([]cand, 0, len(r.followers))
	for si, f := range r.followers {
		if f.paused || f.gone {
			continue
		}
		cs = append(cs, cand{si, f.sent})
	}
	r.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].sent != cs[j].sent {
			return cs[i].sent > cs[j].sent
		}
		return cs[i].shard < cs[j].shard
	})
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.shard
	}
	return out
}

// promote synchronously flushes the remaining log tail to a follower
// and removes it from the follower set: it is the new primary, and the
// primary's tuples reach it through its own shard drain from now on.
// Holding shipMu across the flush keeps the background shipper out.
func (r *replicator) promote(shard int) error {
	r.mu.Lock()
	f, ok := r.followers[shard]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("runtime: shard %d is not a follower of stream %q", shard, r.stream)
	}
	f.shipMu.Lock()
	defer f.shipMu.Unlock()
	for {
		r.mu.Lock()
		batch, base := r.tailLocked(f, replShipBatch)
		reset := f.reset
		if len(batch) == 0 {
			f.gone = true
			delete(r.followers, shard)
			r.cond.Broadcast()
			r.mu.Unlock()
			return nil
		}
		r.mu.Unlock()
		acked, err := f.target.Replicate(r.stream, base, reset, batch)
		if err != nil {
			return err
		}
		r.mu.Lock()
		if reset {
			f.reset = false
		}
		if acked > f.sent {
			f.sent = acked
		}
		r.mu.Unlock()
	}
}

// waitIdle blocks until every live follower whose shard the predicate
// reports healthy has acknowledged the full log. Part of Runtime.Flush
// for replicated streams.
func (r *replicator) waitIdle(healthy func(shard int) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.closed {
		behind := false
		for _, f := range r.followers {
			if f.gone || f.paused || !healthy(f.shard) {
				continue
			}
			if f.sent < r.next {
				behind = true
				break
			}
		}
		if !behind {
			return
		}
		r.cond.Wait()
	}
}

// lag snapshots every follower's position for stats and telemetry.
func (r *replicator) lag() []ReplicaLag {
	r.mu.Lock()
	out := make([]ReplicaLag, 0, len(r.followers))
	for si, f := range r.followers {
		l := ReplicaLag{Shard: si, Gaps: f.gaps, Errors: f.errs, Paused: f.paused}
		if f.sent < r.next {
			l.Lag = r.next - f.sent
		}
		out = append(out, l)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// close stops every shipper.
func (r *replicator) close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// cloneTuples deep-copies a batch for the replication log: the engine
// the originals flow into seals (and may canonicalize) them in place,
// and publishers may reuse their own slices, so the log must own both
// the tuple headers and the value storage.
func cloneTuples(ts []stream.Tuple) []stream.Tuple {
	out := make([]stream.Tuple, len(ts))
	for i, t := range ts {
		t.Values = append([]stream.Value(nil), t.Values...)
		out[i] = t
	}
	return out
}
