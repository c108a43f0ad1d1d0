package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dsms"
	"repro/internal/stream"
)

// mergeStage is the runtime-side second stage of a global aggregate
// over a partitioned stream: it consumes the per-partition record
// streams (window partials or relayed rows, plus watermark records),
// aligns them across partitions on the global position frontier, and
// emits the single global answer a one-shard deployment of the same
// query would have produced.
//
// Alignment uses each partition's effective watermark
//
//	EW_p = max(W_p, G)  when W_p >= A_p,  else  W_p
//
// where W_p is the highest watermark decoded from partition p's record
// stream, and (G, A_p) is a consistent snapshot of the route's stamp
// frontier (G = highest global position stamped, A_p = highest position
// assigned to partition p). W_p >= A_p proves partition p has processed
// everything ever routed to it, so every position up to G is implicitly
// settled for p even though its shard never saw those tuples. This is
// what lets a window finalize when some partitions held none of its
// tuples: their watermarks alone would never pass the window end.
//
// In partial mode, window k finalizes when min_p EW_p >= k*Step+Size;
// partials are merged in partition order (float sums stay
// deterministic) and finished into the emission. In relay mode, the
// buffered rows release in global position order: the smallest buffered
// position g releases once every partition whose buffer is empty has
// EW_q >= g (non-empty buffers bound themselves by their own head);
// released rows feed a real in-engine aggregate operator (AggDriver),
// so emissions are bit-identical to single-shard by construction.
//
// Skew between shards is bounded one way: Options.MergeBuffer caps the
// per-partition backlog (beyond it the oldest pending window/row is
// force-released, trading exactness for memory, and counted in
// exacml_merge_forced_total). There is no time bound: below the buffer
// bound the stage waits indefinitely — a dead shard is replication
// failover's problem, not a reason to emit a wrong window.
type mergeStage struct {
	rt *Runtime
	r  *route // parent partitioned route (stamp-frontier source)

	mode dsms.StageMode
	pcod *dsms.PartialCodec // partial mode
	win  dsms.WindowSpec    // partial mode
	rcod *dsms.RelayCodec   // relay mode
	drv  *dsms.AggDriver    // relay mode

	outSchema *stream.Schema
	bound     int

	mu     sync.Mutex
	parts  []*mergePart
	nextK  int64 // partial mode: next window index to finalize
	outs   map[*mergeOut]struct{}
	srcs   []BackendSubscription
	closed bool
	failed error
}

// mergePart is the per-partition ingest state.
type mergePart struct {
	w uint64 // highest watermark decoded from this partition's records

	// partial mode: open window partials by window index. Partial
	// records are cumulative snapshots (one per open window per
	// processed batch), so the highest-Count record per index wins —
	// Count is monotone per partition, and primary and standby sources
	// compute bit-identical snapshots from the same g-stamped flow, so
	// equal-Count duplicates carry the same content. Window indices
	// below nextK are already merged and their records are dropped.
	wins map[int64]*dsms.WindowPartial

	// relay mode: buffered rows in strictly increasing global position,
	// consumed from head. lastG is the dedup floor: every source emits
	// the full surviving-row sequence in increasing position order, so
	// appending only rows above the floor both dedups replica copies
	// and keeps the buffer sorted.
	rows  []stream.Tuple
	head  int
	lastG uint64
}

func (mp *mergePart) pending() int { return len(mp.rows) - mp.head }

func (mp *mergePart) headRow() *stream.Tuple { return &mp.rows[mp.head] }

func (mp *mergePart) pop() stream.Tuple {
	t := mp.rows[mp.head]
	mp.rows[mp.head] = stream.Tuple{}
	mp.head++
	if mp.head >= 256 && mp.head*2 >= len(mp.rows) {
		mp.rows = append(mp.rows[:0:0], mp.rows[mp.head:]...)
		mp.head = 0
	}
	return t
}

// mergeOut is one subscriber's view of the merged output; it satisfies
// BackendSubscription so the runtime Subscription machinery can wrap it
// unchanged. Deliveries never block: a lagging consumer loses tuples
// and sees them counted in Dropped, mirroring engine subscriptions.
type mergeOut struct {
	ms      *mergeStage
	ch      chan stream.Tuple
	dropped atomic.Uint64
	once    sync.Once
}

func (o *mergeOut) Tuples() <-chan stream.Tuple { return o.ch }

func (o *mergeOut) Dropped() uint64 { return o.dropped.Load() }

func (o *mergeOut) Close() {
	o.ms.mu.Lock()
	if o.ms.outs != nil {
		delete(o.ms.outs, o)
	}
	o.ms.mu.Unlock()
	o.closeCh()
}

func (o *mergeOut) closeCh() {
	o.once.Do(func() { close(o.ch) })
}

// newMergeStage builds the stage for a staged deployment of g: its
// terminal aggregate box re-runs here over the schema feeding it (the
// input schema after every preceding box).
func newMergeStage(rt *Runtime, r *route, mode dsms.StageMode, g *dsms.QueryGraph) (*mergeStage, error) {
	agg := g.Boxes[len(g.Boxes)-1]
	aggIn := r.schema
	for _, b := range g.Boxes[:len(g.Boxes)-1] {
		var err error
		if aggIn, err = b.OutputSchema(aggIn); err != nil {
			return nil, err
		}
	}
	ms := &mergeStage{
		rt:    rt,
		r:     r,
		mode:  mode,
		bound: rt.opts.MergeBuffer,
		parts: make([]*mergePart, len(rt.shards)),
		outs:  map[*mergeOut]struct{}{},
	}
	for p := range ms.parts {
		ms.parts[p] = &mergePart{}
	}
	switch mode {
	case dsms.StagePartial:
		cod, err := dsms.NewPartialCodec(agg.Aggs, aggIn)
		if err != nil {
			return nil, err
		}
		ms.pcod = cod
		ms.win = agg.Window
		ms.outSchema = cod.OutputSchema()
		for p := range ms.parts {
			ms.parts[p].wins = map[int64]*dsms.WindowPartial{}
		}
	case dsms.StageRelay:
		cod, err := dsms.NewRelayCodec(aggIn)
		if err != nil {
			return nil, err
		}
		drv, err := dsms.NewAggDriver(agg, aggIn)
		if err != nil {
			return nil, err
		}
		ms.rcod = cod
		ms.drv = drv
		ms.outSchema = drv.OutputSchema()
	default:
		return nil, fmt.Errorf("runtime: unknown stage mode %q", mode)
	}
	// Seed each partition's watermark with its assigned-position high at
	// deploy time: positions stamped before the stage existed can never
	// surface in its record streams, and without the seed a partition
	// that stays silent after deploy would hold the frontier at zero
	// forever.
	for p := range ms.parts {
		_, a := r.stampFrontier(p)
		ms.parts[p].w = a
	}
	return ms, nil
}

// attachSource wires one backend subscription (a partition part's
// record stream) into the stage and starts its pump. Safe to call for
// primary and standby parts alike: records dedup by content (window
// index / global position), so redundant sources only add resilience.
func (ms *mergeStage) attachSource(p int, bs BackendSubscription) {
	ms.mu.Lock()
	if ms.closed || ms.failed != nil {
		ms.mu.Unlock()
		bs.Close()
		return
	}
	ms.srcs = append(ms.srcs, bs)
	ms.mu.Unlock()
	go func() {
		for t := range bs.Tuples() {
			ms.ingest(p, t)
		}
	}()
}

// newOutput registers a subscriber channel.
func (ms *mergeStage) newOutput() (*mergeOut, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.failed != nil {
		return nil, fmt.Errorf("runtime: merge stage failed: %w", ms.failed)
	}
	if ms.closed {
		return nil, fmt.Errorf("runtime: query withdrawn")
	}
	o := &mergeOut{ms: ms, ch: make(chan stream.Tuple, dsms.DefaultSubscriptionBuffer)}
	ms.outs[o] = struct{}{}
	return o, nil
}

// ingest decodes one record from partition p and advances the merge
// frontier. Serialized by ms.mu; emissions happen under the lock so
// concurrent pumps cannot reorder output.
func (ms *mergeStage) ingest(p int, t stream.Tuple) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.closed || ms.failed != nil {
		return
	}
	mp := ms.parts[p]
	switch ms.mode {
	case dsms.StagePartial:
		part, wm, isWM, err := ms.pcod.Decode(t)
		if err != nil {
			ms.failLocked(err)
			return
		}
		if isWM {
			if wm > mp.w {
				mp.w = wm
			}
		} else if part.Win >= ms.nextK {
			// Partial records are cumulative snapshots; keep the most
			// advanced one. Count is monotone per (partition, window),
			// and equal-count snapshots are bit-identical (a standby
			// replays the primary's exact batches), so replica
			// duplicates and stale replays dedup here content-wise.
			if prev := mp.wins[part.Win]; prev == nil || part.Count > prev.Count {
				mp.wins[part.Win] = part
			}
		}
	case dsms.StageRelay:
		row, g, wm, isWM, err := ms.rcod.Decode(t)
		if err != nil {
			ms.failLocked(err)
			return
		}
		if isWM {
			if wm > mp.w {
				mp.w = wm
			}
		} else if g > mp.lastG {
			mp.lastG = g
			mp.rows = append(mp.rows, row)
		}
	}
	ms.advanceLocked()
}

// ewLocked computes every partition's effective watermark. The stamp
// frontier is snapshotted BEFORE reading W_p (which only grows), so
// W_p >= A_p proves partition p has nothing in flight at or below G.
func (ms *mergeStage) ewLocked() []uint64 {
	ew := make([]uint64, len(ms.parts))
	for p, mp := range ms.parts {
		g, a := ms.r.stampFrontier(p)
		e := mp.w
		if mp.w >= a && g > e {
			e = g
		}
		ew[p] = e
	}
	return ew
}

// advanceLocked releases everything the frontier allows, then applies
// the buffer bound.
func (ms *mergeStage) advanceLocked() {
	ew := ms.ewLocked()
	switch ms.mode {
	case dsms.StagePartial:
		minEW := ew[0]
		for _, e := range ew[1:] {
			if e < minEW {
				minEW = e
			}
		}
		for uint64(ms.windowEnd(ms.nextK)) <= minEW {
			if !ms.emitWindowLocked(ms.nextK) {
				return
			}
			ms.nextK++
		}
	case dsms.StageRelay:
		var batch []stream.Tuple
		for {
			best, bg := -1, uint64(0)
			for p, mp := range ms.parts {
				if mp.pending() == 0 {
					continue
				}
				if g := mp.headRow().Seq; best < 0 || g < bg {
					best, bg = p, g
				}
			}
			if best < 0 {
				break
			}
			releasable := true
			for q, mp := range ms.parts {
				if mp.pending() == 0 && ew[q] < bg {
					releasable = false
					break
				}
			}
			if !releasable {
				break
			}
			batch = append(batch, ms.parts[best].pop())
		}
		if !ms.pushRowsLocked(batch) {
			return
		}
	}
	for ms.overBoundLocked() {
		ms.rt.count("exacml_merge_forced_total",
			"Merge-stage releases forced by the reorder-buffer bound (Options.MergeBuffer).")
		if !ms.forceOneLocked() {
			return
		}
	}
}

func (ms *mergeStage) windowEnd(k int64) int64 { return k*ms.win.Step + ms.win.Size }

// emitWindowLocked merges and emits window k, dropping its partials
// from every partition. Reports false when the stage failed.
func (ms *mergeStage) emitWindowLocked(k int64) bool {
	parts := make([]*dsms.WindowPartial, len(ms.parts))
	any := false
	for p, mp := range ms.parts {
		if w := mp.wins[k]; w != nil {
			parts[p] = w
			delete(mp.wins, k)
			any = true
		}
	}
	if !any {
		// Nothing survived for this window (post-stamp drops or
		// shedding punched holes in the position sequence): emitting
		// nothing mirrors the single-shard engine, which also cannot
		// emit a window it never materialized.
		return true
	}
	m, err := ms.pcod.Merge(parts) // partition order: float sums stay deterministic
	if err != nil {
		ms.failLocked(err)
		return false
	}
	out, err := ms.pcod.Finish(m)
	if err != nil {
		ms.failLocked(err)
		return false
	}
	ms.deliverLocked(out)
	return true
}

// pushRowsLocked feeds released rows to the central aggregate and
// emits whatever windows close. Reports false when the stage failed.
func (ms *mergeStage) pushRowsLocked(batch []stream.Tuple) bool {
	if len(batch) == 0 {
		return true
	}
	outs, err := ms.drv.Push(batch)
	if err != nil {
		ms.failLocked(err)
		return false
	}
	ms.deliverLocked(outs...)
	return true
}

func (ms *mergeStage) deliverLocked(ts ...stream.Tuple) {
	for _, t := range ts {
		ms.rt.count("exacml_merge_emissions_total",
			"Global aggregate emissions produced by runtime merge stages.")
		for o := range ms.outs {
			select {
			case o.ch <- t:
			default:
				o.dropped.Add(1)
			}
		}
	}
}

// overBoundLocked reports whether some partition's backlog exceeds the
// reorder-buffer bound.
func (ms *mergeStage) overBoundLocked() bool {
	for _, mp := range ms.parts {
		if len(mp.wins) > ms.bound || mp.pending() > ms.bound {
			return true
		}
	}
	return false
}

// forceOneLocked releases the oldest pending output without waiting
// for the frontier: the degraded path behind the buffer bound. Reports
// false when the stage failed.
func (ms *mergeStage) forceOneLocked() bool {
	switch ms.mode {
	case dsms.StagePartial:
		k0, found := int64(0), false
		for _, mp := range ms.parts {
			for k := range mp.wins {
				if !found || k < k0 {
					k0, found = k, true
				}
			}
		}
		if !found {
			ms.nextK++ // position hole: skip the empty window
			return true
		}
		ms.nextK = k0 + 1
		return ms.emitWindowLocked(k0)
	case dsms.StageRelay:
		best, bg := -1, uint64(0)
		for p, mp := range ms.parts {
			if mp.pending() == 0 {
				continue
			}
			if g := mp.headRow().Seq; best < 0 || g < bg {
				best, bg = p, g
			}
		}
		if best < 0 {
			return true
		}
		return ms.pushRowsLocked([]stream.Tuple{ms.parts[best].pop()})
	}
	return true
}

// failLocked poisons the stage: sources detach, outputs close, and
// future subscribes report the error. A decode or merge error means
// the record streams are corrupt; emitting more would be guessing.
func (ms *mergeStage) failLocked(err error) {
	if ms.failed != nil || ms.closed {
		return
	}
	ms.failed = err
	ms.rt.count("exacml_merge_errors_total",
		"Merge stages poisoned by a record decode or merge error.")
	ms.teardownLocked()
}

// close shuts the stage down (query withdrawn or runtime closing).
func (ms *mergeStage) close() {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.closed || ms.failed != nil {
		return
	}
	ms.closed = true
	ms.teardownLocked()
}

func (ms *mergeStage) teardownLocked() {
	srcs := ms.srcs
	ms.srcs = nil
	outs := ms.outs
	ms.outs = nil
	// Closing sources ends their pumps; do it off the lock — a remote
	// subscription close can block on the network.
	go func() {
		for _, s := range srcs {
			s.Close()
		}
	}()
	for o := range outs {
		o.closeCh()
	}
}
