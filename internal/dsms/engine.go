package dsms

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/coarsetime"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// DefaultSubscriptionBuffer is the per-subscription channel capacity.
const DefaultSubscriptionBuffer = 1024

// Sentinel errors, detectable with errors.Is through the fmt wrapping
// the engine adds. The dsmsd server maps them onto structured protocol
// error codes so remote callers need not match error text.
var (
	// ErrStreamExists reports a CreateStream name collision.
	ErrStreamExists = errors.New("already exists")
	// ErrUnknownStream reports an operation on an unregistered stream.
	ErrUnknownStream = errors.New("unknown stream")
	// ErrUnknownQuery reports an operation on an unknown query id or
	// handle.
	ErrUnknownQuery = errors.New("unknown query")
)

// Engine is the DSMS runtime: it owns named input streams, executes
// deployed query graphs continuously against arriving tuples, and serves
// each query's output under a stream handle (URI), mirroring how the
// paper's prototype obtains handles from StreamBase.
//
// The publish hot path is batch-native and per-stream: sequence
// assignment and the deployed-query snapshot live in each inputStream
// (its own lock plus an atomic snapshot), so concurrent publishers to
// different streams never contend; the registry lock is only read-held
// for the name lookup. A deployed query owns no goroutine: the
// publisher that seals a batch runs it through every query on the
// stream before its call returns.
type Engine struct {
	name  string
	clock atomic.Pointer[func() int64] // arrival clock in Unix millis; injectable for tests

	mu      sync.RWMutex // guards the registries below
	streams map[string]*inputStream
	queries map[string]*deployedQuery
	byURI   map[string]string // handle URI -> query id
	nextID  int
	closed  bool

	// streamsSnap mirrors streams (lower-cased keys) for the lock-free
	// publish-path lookup; rebuilt under mu on create/drop/close.
	streamsSnap atomic.Pointer[map[string]*inputStream]
	closedFlag  atomic.Bool

	// tel is the metric/trace bundle installed by EnableTelemetry; nil
	// (the default) keeps the hot path free of telemetry work.
	tel atomic.Pointer[engineTelemetry]
}

// NewEngine creates an engine with the given name (the authority part of
// issued handle URIs).
func NewEngine(name string) *Engine {
	e := &Engine{
		name:    name,
		streams: map[string]*inputStream{},
		queries: map[string]*deployedQuery{},
		byURI:   map[string]string{},
	}
	// The default arrival clock is the coarse cached one: at
	// multi-million-tuple/s ingest a time.Now per seal shows up, and
	// arrival stamps only carry millisecond resolution anyway.
	defaultClock := coarsetime.NowMillis
	e.clock.Store(&defaultClock)
	e.updateStreamsSnapLocked()
	return e
}

// updateStreamsSnapLocked rebuilds the lock-free stream lookup map;
// the caller holds e.mu for writing (or owns e exclusively).
func (e *Engine) updateStreamsSnapLocked() {
	m := make(map[string]*inputStream, len(e.streams))
	for k, v := range e.streams {
		m[k] = v
	}
	e.streamsSnap.Store(&m)
}

// SetClock replaces the arrival-time clock (tests use a logical clock).
func (e *Engine) SetClock(clock func() int64) {
	e.clock.Store(&clock)
}

// inputStream is one named stream. The query registry map is guarded
// by Engine.mu; snap mirrors it for lock-free readers on the publish
// path. sealMu is the only per-batch lock a publisher takes, and it is
// private to the stream: publishers to different streams proceed fully
// in parallel. It is held from a batch's seal through its last query's
// push, so the stream's batches run through its queries one at a time,
// in Seq order.
type inputStream struct {
	name   string
	schema *stream.Schema

	queries map[string]*deployedQuery        // guarded by Engine.mu
	snap    atomic.Pointer[[]*deployedQuery] // mirror of queries for seal

	sealMu sync.Mutex
	seq    uint64
	gone   bool // set when the stream is dropped; fails in-flight seals

	// replLog and applied are the stream's replication log and its
	// position in it (see Replicate), guarded by replMu.
	replMu  sync.Mutex
	replLog uint64
	applied uint64

	// pool recycles the stream's columnar batches: a batch returns here
	// once its last query has run, so the steady state allocates no
	// batch storage. Oversized batches are dropped instead of pooled to
	// bound the high-water mark (see putBatch).
	pool sync.Pool
}

// maxPooledRows caps the row capacity of pooled batches: one huge batch
// must not pin its vectors for the lifetime of the stream.
const maxPooledRows = 8192

// getBatch fetches a pooled columnar batch (or makes one) laid out for
// the stream's schema.
func (is *inputStream) getBatch() *stream.ColBatch {
	if cb, ok := is.pool.Get().(*stream.ColBatch); ok {
		return cb
	}
	return stream.NewColBatch(is.schema)
}

func (is *inputStream) putBatch(cb *stream.ColBatch) {
	if cb.Cap() <= maxPooledRows {
		is.pool.Put(cb)
	}
}

// updateSnapLocked rebuilds the seal-time query snapshot; the caller
// holds Engine.mu for writing.
func (is *inputStream) updateSnapLocked() {
	qs := make([]*deployedQuery, 0, len(is.queries))
	for _, q := range is.queries {
		qs = append(qs, q)
	}
	is.snap.Store(&qs)
}

// sealLocked assigns sequence numbers and arrival timestamps to a
// loaded columnar batch. Transposition/validation happens before seal,
// outside any lock; a concurrent DropStream (or drop-and-recreate) is
// caught via the gone flag instead of ingesting into a stale stream.
// The caller holds is.sealMu.
func (is *inputStream) sealLocked(clock func() int64, cb *stream.ColBatch) error {
	if is.gone {
		return fmt.Errorf("dsms: stream %q was replaced during ingest", is.name)
	}
	seq := is.seq
	now := int64(-1)
	arr, sq := cb.Arrival, cb.Seq
	for i := range sq {
		if sq[i] != 0 {
			// Pre-stamped sequence (a fronting runtime's global position
			// on a partitioned stream, or a replicated tuple carrying its
			// primary's lineage): preserve it, mirroring the arrival-time
			// rule below, and keep the stream counter monotonic so later
			// unstamped tuples never reuse a position.
			if sq[i] > seq {
				seq = sq[i]
			}
		} else {
			seq++
			sq[i] = seq
		}
		if arr[i] == 0 {
			if now < 0 {
				// One clock read per batch: every unstamped tuple of a
				// batch arrives at the same engine instant.
				now = clock()
			}
			arr[i] = now
		}
	}
	is.seq = seq
	return nil
}

// Deployment describes a running continuous query.
type Deployment struct {
	// ID is the engine-unique query identifier.
	ID string
	// Handle is the URI under which the output stream is served.
	Handle string
	// Input is the source stream name.
	Input string
	// OutputSchema is the schema of emitted tuples.
	OutputSchema *stream.Schema
}

type deployedQuery struct {
	dep   Deployment
	graph *QueryGraph
	is    *inputStream

	// mu covers one pipeline pass, so a Withdraw or state export of
	// this query waits only for this query's batch in progress. stopped
	// (guarded by mu) makes the passes of batches sealed before the
	// Withdraw skip the query.
	mu      sync.Mutex
	pipe    *pipeline
	stopped bool

	subMu sync.Mutex
	subs  map[*sink]struct{}
	// subsClosed (guarded by subMu) marks that the query stopped and
	// ended its sinks: an Attach that resolved the query just before
	// must fail instead of attaching to a dead query forever.
	subsClosed bool
	// subsSnap mirrors subs for the per-batch lock-free read in
	// process; rebuilt under subMu on attach/detach.
	subsSnap atomic.Pointer[[]*sink]
}

// sink is one consumer of a query's output; see Engine.Attach. wake,
// when set, makes a push blocked on the consumer return for good; stop
// calls it before it waits for the pass in progress.
type sink struct {
	push func([]stream.Tuple)
	end  func()
	wake func()
}

// Subscription delivers a query's output tuples through a channel, a
// consumer attached with Engine.Attach. Ordinary subscriptions drop
// tuples (counted in Dropped) when the consumer falls more than the
// buffer size behind. Subscriptions to staged queries are lossless:
// their output is a partial-aggregate or relay record stream whose
// consumer (a runtime merge stage, over a dsmsd connection) cannot
// tolerate holes — a lost watermark stalls global finalization forever
// — so a full buffer blocks the publisher that sealed the batch
// instead, propagating backpressure to the publish path.
type Subscription struct {
	C <-chan stream.Tuple

	c       chan stream.Tuple
	e       *Engine
	detach  func()
	done    chan struct{} // non-nil selects lossless mode
	wakeOne sync.Once     // closes done
	mu      sync.Mutex
	cond    *sync.Cond // signals sending == 0 (lossless close handshake)
	sending int
	dropped uint64
	closed  bool
}

// Dropped reports how many tuples were discarded because the consumer
// lagged. Always zero for lossless subscriptions.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// push delivers a whole output batch. Per tuple, a tuple that does not
// fit in the buffer is counted in Dropped, never blocked on. In
// lossless mode a full buffer blocks until the consumer drains or the
// subscription closes, and nothing is ever shed; the blocking send
// happens outside s.mu so close() can always interrupt it via the done
// channel.
func (s *Subscription) push(ts []stream.Tuple) {
	if s.done != nil {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.sending++
		s.mu.Unlock()
	send:
		for i := range ts {
			select {
			case s.c <- ts[i]:
			case <-s.done:
				break send
			}
		}
		s.mu.Lock()
		s.sending--
		if s.sending == 0 {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	var dropped uint64
	for _, t := range ts {
		select {
		case s.c <- t:
		default:
			dropped++
		}
	}
	if dropped > 0 {
		s.dropped += dropped
		if tel := s.e.tel.Load(); tel != nil {
			tel.subDropped.Add(dropped)
		}
	}
}

// wake makes every lossless push return at once from now on, dropping
// what it was sending: the query is stopping.
func (s *Subscription) wake() { s.wakeOne.Do(func() { close(s.done) }) }

func (s *Subscription) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.done != nil {
		// Wake blocked senders and wait for them to leave the channel
		// before closing it; new push calls see closed first.
		s.wake()
		for s.sending > 0 {
			s.cond.Wait()
		}
	}
	close(s.c)
}

// CreateStream registers a named input stream with its schema.
func (e *Engine) CreateStream(name string, schema *stream.Schema) error {
	if name == "" || schema == nil {
		return fmt.Errorf("dsms: stream needs a name and a schema")
	}
	key := strings.ToLower(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("dsms: engine closed")
	}
	if _, dup := e.streams[key]; dup {
		return fmt.Errorf("dsms: stream %q %w", name, ErrStreamExists)
	}
	is := &inputStream{name: name, schema: schema, queries: map[string]*deployedQuery{}}
	is.updateSnapLocked()
	e.streams[key] = is
	e.updateStreamsSnapLocked()
	return nil
}

// DropStream removes an input stream and withdraws every query reading
// from it.
func (e *Engine) DropStream(name string) error {
	key := strings.ToLower(name)
	e.mu.Lock()
	is, ok := e.streams[key]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("dsms: %w %q", ErrUnknownStream, name)
	}
	delete(e.streams, key)
	e.updateStreamsSnapLocked()
	e.mu.Unlock()
	e.retire(is)
	return nil
}

// retire withdraws every query of an unregistered stream. It halts them
// first, since a push blocked on a lossless consumer holds the stream's
// lock, then marks the stream gone under that lock, so a publisher that
// resolved it before it was unregistered fails its seal instead of
// silently dropping.
func (e *Engine) retire(is *inputStream) {
	qs := *is.snap.Load()
	for _, q := range qs {
		q.halt()
	}
	is.sealMu.Lock()
	is.gone = true
	is.sealMu.Unlock()
	for _, q := range qs {
		_ = e.Withdraw(q.dep.ID)
	}
}

// StreamSchema returns the schema of a registered stream.
func (e *Engine) StreamSchema(name string) (*stream.Schema, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	is, ok := e.streams[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("dsms: %w %q", ErrUnknownStream, name)
	}
	return is.schema, nil
}

// Streams lists registered stream names, sorted.
func (e *Engine) Streams() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.streams))
	for _, is := range e.streams {
		out = append(out, is.name)
	}
	sort.Strings(out)
	return out
}

// Deploy validates a query graph against its input stream, starts its
// continuous execution under the next free "qNNNNN" id and returns the
// deployment with the output handle: Put("", g, nil).
func (e *Engine) Deploy(g *QueryGraph) (Deployment, error) { return e.Put("", g, nil) }

// Put starts g as the query named name, replacing the query already
// running under that name, so a put is idempotent by name; an empty
// name takes the next free "qNNNNN". A non-nil st is installed into the
// fresh query before it sees a batch — the receiving half of a live
// migration and of a durable restore: a st.InputSeq > 0 fast-forwards
// the input stream's sequence counter so emission provenance continues
// the source lineage (a counter already past it is left alone). A
// state that does not install fails the put, and the query already
// running under name keeps running.
func (e *Engine) Put(name string, g *QueryGraph, st *QueryState) (Deployment, error) {
	if g == nil {
		return Deployment{}, fmt.Errorf("dsms: nil query graph")
	}
	if st != nil && st.InputSeq > 0 {
		if err := e.setStreamSeq(g.Input, st.InputSeq); err != nil && !errors.Is(err, errSeqBehind) {
			return Deployment{}, err
		}
	}
	q, old, err := e.register(name, g, st)
	if err != nil {
		return Deployment{}, err
	}
	if old != nil {
		old.stop()
	}
	return q.dep, nil
}

// register compiles g, installs st into it when non-nil, and registers
// it under name, unregistering the query it replaces, which the caller
// stops.
func (e *Engine) register(name string, g *QueryGraph, st *QueryState) (q, old *deployedQuery, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, nil, fmt.Errorf("dsms: engine closed")
	}
	is, ok := e.streams[strings.ToLower(g.Input)]
	if !ok {
		return nil, nil, fmt.Errorf("dsms: input stream %q: %w", g.Input, ErrUnknownStream)
	}
	gg := g.Clone()
	pipe, outSchema, err := buildPipeline(gg, is.schema)
	if err != nil {
		return nil, nil, err
	}
	if st != nil {
		if err := pipe.importState(st); err != nil {
			return nil, nil, err
		}
	}
	// Deployed pipelines see the engine's live telemetry bundle (window
	// emission counting); offline pipelines (RunGraphOnSlice) stay dark.
	pipe.tel = &e.tel
	for taken := name == ""; taken; _, taken = e.queries[name] {
		e.nextID++
		name = fmt.Sprintf("q%05d", e.nextID)
	}
	old = e.unregisterLocked(name)
	q = &deployedQuery{
		dep: Deployment{
			ID:           name,
			Handle:       fmt.Sprintf("dsms://%s/streams/%s", e.name, name),
			Input:        is.name,
			OutputSchema: outSchema,
		},
		graph: gg,
		is:    is,
		pipe:  pipe,
		subs:  map[*sink]struct{}{},
	}
	q.updateSubsSnapLocked()
	e.queries[name] = q
	e.byURI[q.dep.Handle] = name
	is.queries[name] = q
	is.updateSnapLocked()
	return q, old, nil
}

// updateSubsSnapLocked rebuilds the sink snapshot; the caller holds
// subMu.
func (q *deployedQuery) updateSubsSnapLocked() {
	subs := make([]*sink, 0, len(q.subs))
	for s := range q.subs {
		subs = append(subs, s)
	}
	q.subsSnap.Store(&subs)
}

// process runs one sealed columnar batch through the query's compiled
// columnar program (selection vectors over shared typed vectors — the
// batch itself is never mutated) and pushes a non-empty output batch to
// every sink, reporting the tuples emitted. Output rows are only
// materialized when a sink exists; without one the pipeline just
// counts. Sinks come from an atomic snapshot so the pass never touches
// subMu. Operator errors drop the batch's outputs — after deploy-time
// validation they are unreachable for conforming tuples. The caller
// holds q.mu.
func (q *deployedQuery) process(cb *stream.ColBatch, sp *telemetry.Span) int {
	subs := *q.subsSnap.Load()
	sp.Begin(telemetry.StagePipeline)
	outs, nout, err := q.pipe.processCols(cb, len(subs) > 0)
	sp.End(telemetry.StagePipeline)
	if err != nil {
		return 0
	}
	sp.Begin(telemetry.StagePush)
	if len(outs) > 0 {
		for _, s := range subs {
			s.push(outs)
		}
	}
	sp.End(telemetry.StagePush)
	return nout
}

// Withdraw stops a deployed query, identified by ID or handle URI, and
// closes its subscriptions. It is the mechanism behind §3.3: when a
// policy is removed, every query graph spawned from it is withdrawn.
func (e *Engine) Withdraw(idOrHandle string) error {
	e.mu.Lock()
	q := e.unregisterLocked(e.idOf(idOrHandle))
	e.mu.Unlock()
	if q == nil {
		return fmt.Errorf("dsms: %w %q", ErrUnknownQuery, idOrHandle)
	}
	q.stop()
	return nil
}

// idOf resolves a handle URI to its query id; anything else is taken
// as an id. Caller holds e.mu.
func (e *Engine) idOf(idOrHandle string) string {
	if id, ok := e.byURI[idOrHandle]; ok {
		return id
	}
	return idOrHandle
}

// unregisterLocked removes query id from the registries and returns it
// (nil when unknown) for the caller to stop. Caller holds e.mu.
func (e *Engine) unregisterLocked(id string) *deployedQuery {
	q, ok := e.queries[id]
	if !ok {
		return nil
	}
	delete(e.queries, id)
	delete(e.byURI, q.dep.Handle)
	if is, ok := e.streams[strings.ToLower(q.dep.Input)]; ok {
		delete(is.queries, id)
		is.updateSnapLocked()
	}
	return q
}

// stop ends an unregistered query in two phases. halt first wakes
// every push blocked on a lossless consumer, since the pass in progress
// holds q.mu through its pushes. Once that pass is through, no pass
// runs the query again, and only then does every sink end, so no sink
// gets a push after its end.
func (q *deployedQuery) stop() {
	q.halt()
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
	q.subMu.Lock()
	subs := q.subs
	q.subs = nil
	q.updateSubsSnapLocked()
	q.subMu.Unlock()
	for s := range subs {
		s.end()
	}
}

// halt is stop's first phase: no consumer attaches any more, and no
// push to one attached blocks any more.
func (q *deployedQuery) halt() {
	q.subMu.Lock()
	q.subsClosed = true
	q.subMu.Unlock()
	for _, s := range *q.subsSnap.Load() {
		if s.wake != nil {
			s.wake()
		}
	}
}

// Query returns the deployment for an ID or handle.
func (e *Engine) Query(idOrHandle string) (Deployment, bool) {
	q, err := e.lookupQuery(idOrHandle)
	if err != nil {
		return Deployment{}, false
	}
	return q.dep, true
}

// QueryCount reports the number of running queries.
func (e *Engine) QueryCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.queries)
}

// Queries lists the ids of the running queries, sorted.
func (e *Engine) Queries() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.queries))
	for id := range e.queries {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Attach registers a consumer of a query's output, by id or handle:
// push is called with each non-empty output batch, and end once when
// the query stops. It is the one delivery primitive; Subscribe is built
// on it. push runs on the goroutine that sealed the batch, under the
// stream's lock, so it must not call back into the engine for that
// stream. The batch slice is reused for the next batch, so push keeps
// copies of the tuples, not the slice. A push that blocks holds up the
// publisher and every query on the stream: the backpressure a lossless
// consumer wants, and what every other consumer must avoid. detach
// unregisters the consumer; a push or end already under way may still
// finish.
func (e *Engine) Attach(idOrHandle string, push func([]stream.Tuple), end func()) (detach func(), err error) {
	q, err := e.lookupQuery(idOrHandle)
	if err != nil {
		return nil, err
	}
	return q.attach(&sink{push: push, end: end})
}

func (q *deployedQuery) attach(s *sink) (detach func(), err error) {
	q.subMu.Lock()
	defer q.subMu.Unlock()
	if q.subsClosed {
		// The query stopped between the registry lookup and here.
		return nil, fmt.Errorf("dsms: %w %q", ErrUnknownQuery, q.dep.ID)
	}
	q.subs[s] = struct{}{}
	q.updateSubsSnapLocked()
	return func() {
		q.subMu.Lock()
		delete(q.subs, s)
		q.updateSubsSnapLocked()
		q.subMu.Unlock()
	}, nil
}

// Subscribe attaches a buffered channel to a query's output stream.
func (e *Engine) Subscribe(idOrHandle string) (*Subscription, error) {
	q, err := e.lookupQuery(idOrHandle)
	if err != nil {
		return nil, err
	}
	c := make(chan stream.Tuple, DefaultSubscriptionBuffer)
	s := &Subscription{C: c, c: c, e: e}
	sk := &sink{push: s.push, end: s.close}
	if q.graph != nil && q.graph.Stage != nil {
		s.done = make(chan struct{})
		s.cond = sync.NewCond(&s.mu)
		sk.wake = s.wake
	}
	if s.detach, err = q.attach(sk); err != nil {
		return nil, err
	}
	return s, nil
}

// Unsubscribe detaches a consumer and closes its channel.
func (e *Engine) Unsubscribe(_ string, s *Subscription) {
	s.detach()
	s.close()
}

// lookupStream resolves a stream from the atomic registry snapshot —
// no lock on the publish path. The raw name is tried first so the
// common already-lowercase case skips strings.ToLower.
func (e *Engine) lookupStream(streamName string) (*inputStream, error) {
	m := *e.streamsSnap.Load()
	is, ok := m[streamName]
	if !ok {
		is, ok = m[strings.ToLower(streamName)]
	}
	if !ok {
		if e.closedFlag.Load() {
			return nil, fmt.Errorf("dsms: engine closed")
		}
		return nil, fmt.Errorf("dsms: %w %q", ErrUnknownStream, streamName)
	}
	return is, nil
}

// clockFn returns the current arrival clock.
func (e *Engine) clockFn() func() int64 { return *e.clock.Load() }

// Ingest appends a tuple to a named input stream, assigning its sequence
// number and arrival timestamp, and runs it through every deployed
// query on that stream. The expensive per-tuple validation runs outside
// any lock; concurrent publishers to the same stream serialize on that
// stream's lock from sequence assignment to the last query's push, so
// on each stream every query sees the batches in Seq order. A call that
// has returned has been processed: its outputs are pushed.
//
// The tuple's values are copied into a columnar batch during the call;
// the caller keeps ownership of t.Values and may reuse it after Ingest
// returns.
func (e *Engine) Ingest(streamName string, t stream.Tuple) error {
	one := make([]stream.Tuple, 1)
	one[0] = t
	return e.ingestBatch(streamName, one, false, nil, false)
}

// IngestBatch appends a batch of tuples to a named input stream with a
// single pass through the stream's seal lock, preserving batch order.
// The batch is validated as a whole: if any tuple fails normalization,
// no tuple of the batch is ingested. As for Ingest, every query on the
// stream sees its batches in Seq order, and a call that has returned
// has been processed.
//
// The batch is copied into columnar form synchronously during the
// call: the caller keeps ownership of ts and every tuple's value slice
// and may reuse them as soon as IngestBatch returns.
func (e *Engine) IngestBatch(streamName string, ts []stream.Tuple) error {
	return e.ingestBatch(streamName, ts, false, nil, false)
}

// IngestBatchPrevalidated is IngestBatch without the per-tuple
// conformance walk, for callers that already validated the batch
// against the stream's current schema (the sharded runtime checks at
// publish time; seal catches a stream swapped in between). Tuples with
// the wrong arity for the current schema fail the batch rather than
// corrupt it.
func (e *Engine) IngestBatchPrevalidated(streamName string, ts []stream.Tuple) error {
	return e.ingestBatch(streamName, ts, true, nil, false)
}

// IngestBatchTraced is IngestBatchPrevalidated for callers that run
// their own publish tracer (the sharded runtime): sp, which may be nil
// for an unsampled batch, continues through the engine's seal /
// pipeline / push stages, and the engine's own sampling is suppressed
// so the caller's sampling rate governs. The engine takes ownership of
// the span (it is finished before the call returns).
func (e *Engine) IngestBatchTraced(streamName string, ts []stream.Tuple, sp *telemetry.Span) error {
	return e.ingestBatch(streamName, ts, true, sp, true)
}

func (e *Engine) ingestBatch(streamName string, ts []stream.Tuple, prevalidated bool, sp *telemetry.Span, traced bool) error {
	if len(ts) == 0 {
		sp.Finish()
		return nil
	}
	is, err := e.lookupStream(streamName)
	if err != nil {
		sp.Finish()
		return err
	}
	return e.ingestInto(is, ts, prevalidated, sp, traced)
}

// ingestInto is ingestBatch against an already-resolved stream.
func (e *Engine) ingestInto(is *inputStream, ts []stream.Tuple, prevalidated bool, sp *telemetry.Span, traced bool) error {
	if tel := e.tel.Load(); tel != nil {
		// One atomic add per batch: the offered-tuples counter is also
		// the sampling clock, so tracing costs no extra atomics until a
		// batch actually crosses a sampling boundary.
		n := tel.clock.Add(uint64(len(ts)))
		if !traced && sp == nil {
			sp = tel.tracer.SampleCrossing(n-uint64(len(ts)), n)
		}
		if err := e.sealAndDispatch(is, ts, prevalidated, sp); err != nil {
			tel.errors.Add(uint64(len(ts)))
			return err
		}
		return nil
	}
	return e.sealAndDispatch(is, ts, prevalidated, sp)
}

// sealAndDispatch transposes one row batch into a pooled columnar
// batch (validating and coercing in the same pass), seals it and runs
// it through the stream's queries in one hold of the stream lock, then
// returns the batch to the pool. A sampled span records the seal stage
// and, summed over every query, the pipeline and push stages; it is
// finished here on every path. The input tuples are fully copied into
// the columnar batch, so the caller gets its slice back regardless of
// outcome.
func (e *Engine) sealAndDispatch(is *inputStream, ts []stream.Tuple, prevalidated bool, sp *telemetry.Span) error {
	defer sp.Finish()
	sp.Begin(telemetry.StageSeal)
	cb := is.getBatch()
	defer is.putBatch(cb)
	if err := cb.LoadTuples(ts, prevalidated); err != nil {
		// Validation is atomic: the stream's sequence counter was never
		// touched.
		sp.CloseOpen()
		return fmt.Errorf("dsms: %w", err)
	}
	is.sealMu.Lock()
	defer is.sealMu.Unlock()
	if err := is.sealLocked(e.clockFn(), cb); err != nil {
		sp.CloseOpen()
		return err
	}
	sp.End(telemetry.StageSeal)
	nout := 0
	for _, q := range *is.snap.Load() {
		q.mu.Lock()
		if !q.stopped {
			nout += q.process(cb, sp)
		}
		q.mu.Unlock()
	}
	if tel := e.tel.Load(); tel != nil && nout > 0 {
		tel.outputs.Add(uint64(nout))
	}
	return nil
}

// Flush is a barrier: it returns once every batch already holding a
// stream's lock when it is called has been processed. An ingest call is
// processed when it returns, so only concurrent publishers need it.
func (e *Engine) Flush() {
	for _, is := range *e.streamsSnap.Load() {
		is.sealMu.Lock()
		is.sealMu.Unlock()
	}
}

// Close stops all queries and rejects further use.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.closedFlag.Store(true)
	empty := map[string]*inputStream{}
	e.streamsSnap.Store(&empty)
	streams := make([]*inputStream, 0, len(e.streams))
	for _, is := range e.streams {
		streams = append(streams, is)
	}
	e.mu.Unlock()
	for _, is := range streams {
		e.retire(is)
	}
}

// RunGraphOnSlice applies a query graph to a finite tuple slice
// synchronously, returning all outputs. Offline helper used by tests,
// the reconstruction-attack demo and examples; it does not touch the
// engine registry.
func RunGraphOnSlice(g *QueryGraph, schema *stream.Schema, in []stream.Tuple) ([]stream.Tuple, *stream.Schema, error) {
	pipe, out, err := buildPipeline(g.Clone(), schema)
	if err != nil {
		return nil, nil, err
	}
	nts := make([]stream.Tuple, 0, len(in))
	for i, t := range in {
		nt, err := t.Normalize(schema)
		if err != nil {
			return nil, nil, fmt.Errorf("dsms: tuple %d: %w", i, err)
		}
		if nt.Seq == 0 {
			nt.Seq = uint64(i + 1)
		}
		nts = append(nts, nt)
	}
	res, err := pipe.processBatch(nts, true)
	if err != nil {
		return nil, nil, err
	}
	var outs []stream.Tuple
	if len(res) > 0 {
		outs = append(outs, res...)
	}
	return outs, out, nil
}
