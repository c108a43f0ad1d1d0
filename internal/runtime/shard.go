package runtime

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// item is one queued publish: a tuple bound for a named stream on the
// shard's engine, tagged with the stream's priority class and counters
// so drops and ingests can be attributed back to the stream. A sampled
// publish-trace span rides on the first item of its batch (sp is nil on
// every other item), crossing from the publisher to the shard worker
// through the queue's mutex.
type item struct {
	stream string
	class  Class
	sc     *streamCounters
	sp     *telemetry.Span
	// rep is the stream's replicator when the stream is replicated:
	// the drain loop appends successfully ingested runs to its log, so
	// log order is exactly the engine's ingest order.
	rep   *replicator
	tuple stream.Tuple
}

// classRing is a FIFO ring for one priority class. Rings grow on demand
// (the shard's total admission count is bounded separately), so a shard
// whose traffic is single-class pays no memory for the others. Grown
// rings deliberately keep their capacity: shrinking on empty would
// thrash the drain path, and the retained slack is bounded by the
// queue capacity per class.
type classRing struct {
	buf   []item
	head  int
	count int
}

func (r *classRing) push(it item) {
	if r.count == len(r.buf) {
		n := len(r.buf) * 2
		if n == 0 {
			n = 16
		}
		nb := make([]item, n)
		for i := 0; i < r.count; i++ {
			nb[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = nb
		r.head = 0
	}
	r.buf[(r.head+r.count)%len(r.buf)] = it
	r.count++
}

// popOldest removes and returns the oldest queued item.
func (r *classRing) popOldest() item {
	it := r.buf[r.head]
	r.buf[r.head] = item{}
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return it
}

// popNewest removes and returns the most recently queued item.
func (r *classRing) popNewest() item {
	i := (r.head + r.count - 1) % len(r.buf)
	it := r.buf[i]
	r.buf[i] = item{}
	r.count--
	return it
}

// shard owns one ShardBackend — an in-process dsms.Engine or a remote
// dsmsd process — plus the bounded, class-partitioned queue in front of
// it. A dedicated worker goroutine drains the queue in batches —
// highest class first — and ships them to the backend via IngestBatch,
// so publishers never touch the backend directly.
type shard struct {
	idx        int
	be         ShardBackend
	policy     Policy
	blockClass Class
	batch      int
	cap        int

	mu       sync.Mutex
	notEmpty *sync.Cond // signalled when items arrive or state changes
	notFull  *sync.Cond // signalled when queue space frees up (Block)
	idle     *sync.Cond // signalled when queue and worker are both empty
	rings    [numClasses]classRing
	count    int // items currently queued across all classes
	draining int // items popped by the worker, not yet ingested
	paused   bool
	closed   bool
	// failErr is set when the backend declares itself down (remote
	// failover); publishes then fail fast, accounted as errors so the
	// offered == ingested + dropped + errors invariant keeps holding.
	failErr error
	done    chan struct{}
	health  *healthStream // set by NewWithBackends

	// counters; guarded by mu
	offered  uint64
	accepted uint64
	dropped  uint64
	ingested uint64
	errors   uint64
}

func newShard(idx int, be ShardBackend, queue, batch int, policy Policy, blockClass Class) *shard {
	s := &shard{
		idx:        idx,
		be:         be,
		policy:     policy,
		blockClass: blockClass,
		batch:      batch,
		cap:        queue,
		done:       make(chan struct{}),
	}
	s.notEmpty = sync.NewCond(&s.mu)
	s.notFull = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	go s.run()
	return s
}

// push appends one item to its class ring; the caller holds s.mu and
// has ensured total space.
func (s *shard) push(it item) {
	s.rings[it.class].push(it)
	s.count++
}

// dropItem accounts one shed tuple against the shard and its stream. A
// span riding on an evicted item is closed out here — its batch is not
// reaching the backend through this tuple.
func (s *shard) dropItem(it item) {
	s.dropped++
	if it.sc != nil {
		it.sc.dropped.Add(1)
	}
	if it.sp != nil {
		it.sp.CloseOpen()
		it.sp.Finish()
	}
}

// evictLowest sheds one queued tuple of the lowest non-empty class at
// or below limit, preferring the newest (newest=true) or oldest victim
// within that class. It reports whether a victim was found; the caller
// holds s.mu.
func (s *shard) evictLowest(limit Class, newest bool) bool {
	for c := Class(0); c <= limit; c++ {
		if s.rings[c].count == 0 {
			continue
		}
		var victim item
		if newest {
			victim = s.rings[c].popNewest()
		} else {
			victim = s.rings[c].popOldest()
		}
		s.count--
		s.dropItem(victim)
		return true
	}
	return false
}

// enqueue applies the backpressure policy to a batch of tuples bound
// for one stream. It returns how many tuples were accepted into the
// queue; under the drop policies lower-class queued tuples are evicted
// before an incoming higher-class tuple is refused. A sampled span
// (Begin(StageQueueWait) already stamped by the publisher) is attached
// to the first accepted item; when nothing is accepted it is finished
// here so every sampled batch resolves exactly once.
func (s *shard) enqueue(streamName string, class Class, sc *streamCounters, rep *replicator, ts []stream.Tuple, sp *telemetry.Span) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() {
		if sp != nil {
			// Never attached: the whole batch was dropped or refused.
			sp.CloseOpen()
			sp.Finish()
		}
	}()
	accepted := 0
	for i, t := range ts {
		if s.closed {
			return accepted, errClosed
		}
		if s.failErr != nil {
			return accepted, s.refuseFailedLocked(len(ts)-i, sc)
		}
		s.offered++
		switch {
		case s.policy == Block && class >= s.blockClass:
			for s.count == s.cap && !s.closed && s.failErr == nil {
				// Wake the drainer before sleeping on a full queue: the
				// batch may be larger than the queue, so the end-of-call
				// signal below would never be reached.
				s.notEmpty.Signal()
				s.notFull.Wait()
			}
			if s.closed {
				s.offered-- // never admitted nor shed; not accounted
				return accepted, errClosed
			}
			if s.failErr != nil {
				s.offered-- // refuseFailedLocked re-counts this tuple
				return accepted, s.refuseFailedLocked(len(ts)-i, sc)
			}
		case s.policy == Block || s.policy == DropNewest:
			// DropNewest — and Block for classes below the blocking
			// threshold — sheds on a full queue, evicting a queued
			// strictly-lower-class tuple first so higher classes ride out
			// the overload.
			if s.count == s.cap {
				if class == 0 || !s.evictLowest(class-1, true) {
					s.dropItem(item{sc: sc})
					continue
				}
			}
		case s.policy == DropOldest:
			// DropOldest evicts the oldest tuple of the lowest class at
			// or below the incoming one; a low-class tuple never evicts a
			// higher-class victim (it is dropped instead).
			if s.count == s.cap {
				if !s.evictLowest(class, false) {
					s.dropItem(item{sc: sc})
					continue
				}
			}
		}
		s.push(item{stream: streamName, class: class, sc: sc, rep: rep, sp: sp, tuple: t})
		sp = nil
		s.accepted++
		accepted++
		if s.count == 1 {
			s.notEmpty.Signal()
		}
	}
	if accepted > 0 {
		s.notEmpty.Signal()
	}
	return accepted, nil
}

// refuseFailedLocked accounts n tuples refused because the shard's
// backend is down: they are offered-and-errored at both the shard and
// stream level, keeping offered == ingested + dropped + errors intact,
// and the backend's terminal error (wrapping client.ErrConnClosed for
// remote shards) is returned to the publisher. The caller holds s.mu.
func (s *shard) refuseFailedLocked(n int, sc *streamCounters) error {
	s.offered += uint64(n)
	s.errors += uint64(n)
	if sc != nil {
		sc.errors.Add(uint64(n))
	}
	return s.failErr
}

// fail puts the shard into fail-fast mode after its backend declared
// itself down: queued items still drain (the backend errors them
// immediately, keeping the accounting exact) but new publishes are
// refused with err. Blocked publishers are woken.
func (s *shard) fail(err error) {
	s.mu.Lock()
	if s.failErr == nil && !s.closed {
		s.failErr = err
		s.notFull.Broadcast()
	}
	s.mu.Unlock()
}

// unfail lifts fail-fast mode after the backend was re-adopted: new
// publishes reach the backend again, and Block publishers parked on a
// full queue are woken to re-check.
func (s *shard) unfail() {
	s.mu.Lock()
	if s.failErr != nil && !s.closed {
		s.failErr = nil
		s.notFull.Broadcast()
		s.notEmpty.Broadcast()
	}
	s.mu.Unlock()
}

// failedErr reports the terminal backend error, or nil while healthy.
func (s *shard) failedErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failErr
}

// waitDrained blocks until nothing is queued or draining. On a failed
// shard this terminates quickly: enqueue refuses new work and the dead
// backend errors each drained batch immediately. Failover uses it to
// fence the worker's last in-flight batch before promoting a replica,
// so a late successful ingest cannot extend the replication log after
// the promotion flush.
func (s *shard) waitDrained() {
	s.mu.Lock()
	for (s.count > 0 || s.draining > 0) && !s.closed && !s.paused {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// waitInflight blocks until the worker holds no popped-but-unfinished
// items. Unlike waitDrained it does not require the queue to be empty
// and keeps waiting while the shard is paused: MigrateQuery pauses the
// drain and then needs the worker's current batch fenced — its engine
// ingest and replication-log append both done — before sampling the
// replication log position, so the exported query state cannot include
// tuples the migration target has not applied.
func (s *shard) waitInflight() {
	s.mu.Lock()
	for s.draining > 0 && !s.closed {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// popLocked removes the next item to drain — FIFO within a class,
// highest class first; the caller holds s.mu and has checked count > 0.
func (s *shard) popLocked() item {
	for c := numClasses - 1; c >= 0; c-- {
		if s.rings[c].count > 0 {
			s.count--
			return s.rings[c].popOldest()
		}
	}
	panic("runtime: popLocked on empty shard queue")
}

// run is the shard worker: it drains up to batch items per wake-up and
// ships contiguous same-stream runs to the backend in one batch call
// each, amortizing the engine's per-stream seal. Runs reuse one
// scratch tuple buffer across iterations: every backend consumes the
// batch synchronously during the ingest call (a local engine copies it
// into a columnar batch, a remote one marshals it onto the wire), so
// nothing retains the slice once the call returns.
func (s *shard) run() {
	scratch := make([]item, 0, s.batch)
	tuples := make([]stream.Tuple, 0, s.batch)
	for {
		s.mu.Lock()
		for (s.count == 0 || s.paused) && !s.closed {
			s.notEmpty.Wait()
		}
		if s.closed && s.count == 0 {
			s.mu.Unlock()
			close(s.done)
			return
		}
		n := s.batch
		if s.count < n {
			n = s.count
		}
		scratch = scratch[:0]
		for i := 0; i < n; i++ {
			scratch = append(scratch, s.popLocked())
		}
		s.draining += n
		s.notFull.Broadcast()
		s.mu.Unlock()

		var ok, bad uint64
		for i := 0; i < len(scratch); {
			j := i + 1
			for j < len(scratch) && scratch[j].stream == scratch[i].stream {
				j++
			}
			tuples = tuples[:j-i]
			// One span continues with the run; extra sampled spans that
			// landed in the same drain (rare at realistic sampling rates)
			// are closed out with just their queue-wait stage.
			var sp *telemetry.Span
			for k := i; k < j; k++ {
				tuples[k-i] = scratch[k].tuple
				if sk := scratch[k].sp; sk != nil {
					if sp == nil {
						sp = sk
					} else {
						sk.End(telemetry.StageQueueWait)
						sk.Finish()
					}
					scratch[k].sp = nil
				}
			}
			sp.End(telemetry.StageQueueWait)
			// A replicated run is cloned: the log outlives the reused
			// scratch buffer and needs unsealed copies carrying only the
			// publisher-stamped arrival times (the follower's engine
			// assigns its own — identical — sequence numbers).
			var repCopy []stream.Tuple
			if scratch[i].rep != nil {
				repCopy = cloneTuples(tuples)
			}
			// PublishBatch already validated against the stream schema,
			// so backends skip the engine's conformance walk. The backend
			// takes ownership of the span.
			run := uint64(j - i)
			if err := s.be.IngestBatch(scratch[i].stream, tuples, sp); err != nil {
				bad += run
				if sc := scratch[i].sc; sc != nil {
					sc.errors.Add(run)
				}
			} else {
				ok += run
				if sc := scratch[i].sc; sc != nil {
					sc.ingested.Add(run)
				}
				if repCopy != nil {
					scratch[i].rep.append(repCopy)
				}
			}
			i = j
		}

		s.mu.Lock()
		s.draining -= n
		s.ingested += ok
		s.errors += bad
		// Also wake when the in-flight batch lands on a paused shard:
		// waitInflight fences exactly that (queued items may remain).
		if s.draining == 0 && (s.count == 0 || s.paused) {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
	}
}

// flush blocks until the queue is empty and the worker has handed every
// popped item to the backend; a returned ingest has been processed. A
// paused shard with queued items will block until the runtime is
// resumed.
func (s *shard) flush() {
	s.mu.Lock()
	for (s.count > 0 || s.draining > 0) && !s.closed {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

func (s *shard) pause() {
	s.mu.Lock()
	s.paused = true
	s.idle.Broadcast() // release waitDrained: a paused queue won't drain
	s.mu.Unlock()
}

func (s *shard) resume() {
	s.mu.Lock()
	s.paused = false
	s.notEmpty.Broadcast()
	s.mu.Unlock()
}

// close rejects further publishes and lets the worker drain what is
// already queued before exiting.
func (s *shard) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.paused = false
	s.notEmpty.Broadcast()
	s.notFull.Broadcast()
	s.idle.Broadcast()
	s.mu.Unlock()
	<-s.done
	_ = s.be.Close()
}

// snapshot reads the shard counters into a metrics row.
func (s *shard) snapshot(elapsedSec float64) metrics.ShardStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := metrics.ShardStat{
		Shard:      s.idx,
		Backend:    s.be.Kind(),
		Healthy:    s.failErr == nil && s.be.Healthy(),
		QueueDepth: s.count + s.draining,
		QueueCap:   s.cap,
		Offered:    s.offered,
		Accepted:   s.accepted,
		Dropped:    s.dropped,
		Ingested:   s.ingested,
		Errors:     s.errors,
	}
	if elapsedSec > 0 {
		st.Throughput = float64(s.ingested) / elapsedSec
	}
	return st
}
