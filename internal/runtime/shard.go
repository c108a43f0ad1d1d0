package runtime

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// maxRun is the most tuples one backend call carries, which keeps a
// remote shard's frame far under protocol.MaxFrameSize.
const maxRun = 256

// entry is one admitted run of a publish: tuples bound for a stream,
// its class, counters and replicator, and the publish's sampled span
// on its first entry only. Its tuples are the queue's own copy.
type entry struct {
	stream string
	class  Class
	sc     *streamCounters
	sp     *telemetry.Span
	rep    *replicator
	tuples []stream.Tuple
}

// classRing is a FIFO ring of entries for one priority class. Rings
// grow on demand and keep their capacity (the shard's tuple count is
// bounded separately).
type classRing struct {
	buf   []entry
	head  int
	count int
}

// at returns the i-th oldest entry, valid until the ring changes shape.
func (r *classRing) at(i int) *entry {
	return &r.buf[(r.head+i)%len(r.buf)]
}

func (r *classRing) push(e entry) {
	if r.count == len(r.buf) {
		nb := make([]entry, max(2*len(r.buf), 16))
		for i := 0; i < r.count; i++ {
			nb[i] = *r.at(i)
		}
		r.buf, r.head = nb, 0
	}
	r.count++
	*r.at(r.count - 1) = e
}

func (r *classRing) popOldest() entry {
	e := r.buf[r.head]
	r.buf[r.head] = entry{}
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return e
}

// shard owns one ShardBackend — an in-process dsms.Engine or a remote
// dsmsd process — and the bounded, class-partitioned queue in front of
// it. It runs no goroutine at rest. Its drain token is a lock: the
// publish that finds it free and the queue non-empty takes it and
// starts a goroutine that drains the whole queue, highest class first,
// one IngestBatch per entry, and lets the token go, and ends, only once
// the queue is empty. So queued tuples mean a drain is running, the
// shard is paused, or it is closed, and only the holder ingests and
// appends to replication logs.
type shard struct {
	idx        int
	be         ShardBackend
	policy     Policy
	blockClass Class
	cap        int
	drain      func() // drainAsync, bound once so a go statement allocates nothing

	mu       sync.Mutex
	notFull  *sync.Cond // queue space freed (Block)
	idle     *sync.Cond // token let go, or shard paused
	rings    [numClasses]classRing
	count    int  // tuples queued across all classes
	busy     bool // the drain token is held
	draining int  // tuples in the holder's backend call (QueueDepth)
	paused   bool
	closed   bool
	spare    [][]stream.Tuple // drained entry buffers, emptied, for reuse
	spareCap int              // their capacity in tuples, at most cap
	// failErr is set while the backend is down: publishes fail fast,
	// accounted as errors (offered == ingested + dropped + errors).
	failErr error
	health  *healthStream // set by NewWithBackends

	offered, accepted, dropped, ingested, errors uint64 // guarded by mu
}

func newShard(idx int, be ShardBackend, queue int, policy Policy, blockClass Class) *shard {
	s := &shard{idx: idx, be: be, policy: policy, blockClass: blockClass, cap: queue}
	s.notFull = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	s.drain = s.drainAsync
	return s
}

// dropTuple accounts one shed tuple against the shard and its stream.
func (s *shard) dropTuple(sc *streamCounters) {
	s.dropped++
	if sc != nil {
		sc.dropped.Add(1)
	}
}

// evictLowest sheds one queued tuple of the lowest non-empty class at
// or below limit, trimmed off the newest (newest=true) or oldest entry
// of that class; an emptied entry leaves the queue with its span. It
// reports whether a victim was found; the caller holds s.mu.
func (s *shard) evictLowest(limit Class, newest bool) bool {
	for c := Class(0); c <= limit; c++ {
		r := &s.rings[c]
		if r.count == 0 {
			continue
		}
		e := r.at(0)
		if newest {
			e = r.at(r.count - 1)
			e.tuples = e.tuples[:len(e.tuples)-1]
		} else {
			e.tuples = e.tuples[1:]
		}
		s.count--
		s.dropTuple(e.sc)
		if len(e.tuples) == 0 {
			e.sp.CloseOpen()
			e.sp.Finish()
			*e = entry{}
			if newest {
				r.count--
			} else {
				r.popOldest()
			}
		}
		return true
	}
	return false
}

// enqueue admits a batch bound for one stream (hdr carries all but the
// tuples) tuple by tuple under the backpressure policy, copying what it
// admits, and returns how many it admitted. The span in hdr rides on
// the first admitted entry, or is finished here. It then starts a drain
// if none is running.
func (s *shard) enqueue(hdr entry, ts []stream.Tuple) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := hdr.sp
	defer func() { sp.CloseOpen(); sp.Finish() }() // nil once it rides on an entry
	defer s.startLocked()
	blocks := s.policy == Block && hdr.class >= s.blockClass
	// open: the ring's newest entry is this call's. Only this call
	// changes the tail while it holds s.mu, and a DropOldest eviction
	// that empties this call's entry empties the ring.
	open := false
	r := &s.rings[hdr.class]
	accepted := 0
	for i, t := range ts {
		if s.closed {
			return accepted, errClosed
		}
		if s.failErr != nil {
			return accepted, s.refuseFailedLocked(len(ts)-i, hdr.sc)
		}
		s.offered++
		switch {
		case blocks:
			for s.count == s.cap && !s.closed && s.failErr == nil {
				open = false // the drain may take this call's entry meanwhile
				s.startLocked()
				s.notFull.Wait()
			}
			if s.closed {
				s.offered-- // never admitted nor shed; not accounted
				return accepted, errClosed
			}
			if s.failErr != nil {
				s.offered-- // refuseFailedLocked re-counts this tuple
				return accepted, s.refuseFailedLocked(len(ts)-i, hdr.sc)
			}
		case s.policy == Block || s.policy == DropNewest:
			// Shed on a full queue, evicting a queued strictly-lower-class
			// tuple first so higher classes ride out the overload.
			if s.count == s.cap && (hdr.class == 0 || !s.evictLowest(hdr.class-1, true)) {
				s.dropTuple(hdr.sc)
				open = false
				continue
			}
		case s.policy == DropOldest:
			// Evict the oldest tuple of the lowest class at or below the
			// incoming one; never a higher-class victim.
			if s.count == s.cap && !s.evictLowest(hdr.class, false) {
				s.dropTuple(hdr.sc)
				open = false
				continue
			}
		}
		if open && r.count > 0 {
			e := r.at(r.count - 1)
			e.tuples = append(e.tuples, t)
		} else {
			e := hdr
			e.sp, e.tuples = sp, append(s.bufferLocked(len(ts)-i), t)
			r.push(e)
		}
		sp, open = nil, true
		s.count++
		s.accepted++
		accepted++
	}
	return accepted, nil
}

// bufferLocked returns an empty tuple buffer for a new entry, a spare
// one if it can hold n; the caller holds s.mu.
func (s *shard) bufferLocked(n int) []stream.Tuple {
	if k := len(s.spare) - 1; k >= 0 {
		buf := s.spare[k]
		s.spare, s.spareCap = s.spare[:k], s.spareCap-cap(buf)
		if cap(buf) >= n {
			return buf
		}
	}
	return make([]stream.Tuple, 0, n)
}

// startLocked starts a drain goroutine if the queue is non-empty, the
// token free and the shard not paused; the caller holds s.mu.
func (s *shard) startLocked() {
	if s.count > 0 && !s.busy && !s.paused {
		s.busy = true
		go s.drain()
	}
}

// drainAsync is the drain goroutine's body: it holds the token.
func (s *shard) drainAsync() {
	s.mu.Lock()
	s.drainLocked()
	s.releaseLocked()
	s.mu.Unlock()
}

// releaseLocked lets the drain token go; the caller holds s.mu.
func (s *shard) releaseLocked() {
	s.busy = false
	s.idle.Broadcast()
}

// drainLocked ingests entries until the queue is empty or the shard
// pauses, keeping drained entries' buffers as spares up to the queue's
// capacity; the caller holds the token and s.mu, let go around each
// call.
func (s *shard) drainLocked() {
	for s.count > 0 && !s.paused {
		e, last := s.popLocked()
		n := len(e.tuples)
		s.count -= n
		s.draining = n
		s.notFull.Broadcast()
		s.mu.Unlock()
		err := s.ingest(e)
		clear(e.tuples) // let go of the publisher's values
		s.mu.Lock()
		s.draining = 0
		if err != nil {
			s.errors += uint64(n)
		} else {
			s.ingested += uint64(n)
		}
		if last && s.spareCap+cap(e.tuples) <= s.cap {
			s.spare, s.spareCap = append(s.spare, e.tuples[:0]), s.spareCap+cap(e.tuples)
		}
	}
}

// popLocked removes the next run, the oldest entry of the highest
// class or its first maxRun tuples, and reports whether the run ends
// its entry; the caller holds s.mu, count > 0.
func (s *shard) popLocked() (entry, bool) {
	for c := numClasses - 1; c >= 0; c-- {
		r := &s.rings[c]
		if r.count == 0 {
			continue
		}
		if e := r.at(0); len(e.tuples) > maxRun {
			run := *e
			run.tuples = e.tuples[:maxRun:maxRun]
			e.tuples, e.sp = e.tuples[maxRun:], nil
			return run, false
		}
		return r.popOldest(), true
	}
	panic("runtime: popLocked on empty shard queue")
}

// ingest ships one schema-checked run, and its span, to the backend,
// which is done with the tuples when it returns, and accounts it
// against its stream. A replicated run is cloned first: the log
// outlives the entry's buffer, which is reused.
func (s *shard) ingest(e entry) error {
	e.sp.End(telemetry.StageQueueWait)
	var repCopy []stream.Tuple
	if e.rep != nil {
		repCopy = cloneTuples(e.tuples)
	}
	n := uint64(len(e.tuples))
	err := s.be.IngestBatch(e.stream, e.tuples, e.sp)
	switch {
	case err != nil && e.sc != nil:
		e.sc.errors.Add(n)
	case err == nil && e.sc != nil:
		e.sc.ingested.Add(n)
	}
	if err == nil && repCopy != nil {
		e.rep.append(repCopy)
	}
	return err
}

// refuseFailedLocked accounts n tuples refused because the backend is
// down as offered and errored, shard and stream, and returns its
// terminal error (wrapping client.ErrConnClosed if remote). The caller
// holds s.mu.
func (s *shard) refuseFailedLocked(n int, sc *streamCounters) error {
	s.offered += uint64(n)
	s.errors += uint64(n)
	if sc != nil {
		sc.errors.Add(uint64(n))
	}
	return s.failErr
}

// fail puts the shard into fail-fast mode after its backend declared
// itself down: queued entries still drain (the backend errors them) but
// new publishes are refused with err. Blocked publishers are woken.
func (s *shard) fail(err error) {
	s.mu.Lock()
	if s.failErr == nil && !s.closed {
		s.failErr = err
		s.notFull.Broadcast()
	}
	s.mu.Unlock()
}

// unfail lifts fail-fast mode after the backend was re-adopted, waking
// Block publishers parked on a full queue.
func (s *shard) unfail() {
	s.mu.Lock()
	if s.failErr != nil && !s.closed {
		s.failErr = nil
		s.notFull.Broadcast()
	}
	s.mu.Unlock()
}

// failedErr reports the terminal backend error, or nil while healthy.
func (s *shard) failedErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failErr
}

// waitDrained blocks until nothing is queued or draining, which on a
// failed shard is soon: its backend errors each run at once. Failover
// fences with it, so no late ingest extends the replication log after
// the promotion flush.
func (s *shard) waitDrained() {
	s.mu.Lock()
	for (s.count > 0 || s.busy) && !s.closed && !s.paused {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// flush blocks until the queue is empty and the token is free; a
// returned ingest has been processed. A paused shard with queued
// entries will block until the runtime is resumed.
func (s *shard) flush() {
	s.mu.Lock()
	for (s.count > 0 || s.busy) && !s.closed {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// pause stops the drain and returns once the holder's current run, its
// log append included, is done (MigrateQuery's fence); publishes keep
// being admitted.
func (s *shard) pause() {
	s.mu.Lock()
	s.paused = true
	s.idle.Broadcast() // release waitDrained: a paused queue won't drain
	for s.busy && !s.closed {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// resume lifts a pause and starts a drain of what queued meanwhile.
func (s *shard) resume() {
	s.mu.Lock()
	s.paused = false
	s.startLocked()
	s.mu.Unlock()
}

// close rejects further publishes, drains what is already queued on
// the caller once the token is free, and closes the backend.
func (s *shard) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed, s.paused = true, false
	s.notFull.Broadcast()
	s.idle.Broadcast()
	for s.busy {
		s.idle.Wait()
	}
	s.busy = true
	s.drainLocked()
	s.releaseLocked()
	s.mu.Unlock()
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
