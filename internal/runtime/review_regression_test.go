// Regression tests for three self-healing edge cases found in review:
// a re-adopted shard that is currently a route's promoted primary must
// not be re-enlisted as a follower of its own stream (double ingest),
// a follower that restarts empty after the bounded replication log has
// trimmed must still be re-fed (the shipper declares the gap from the
// position the follower reports), and MigrateQuery must fence
// the paused primary's in-flight batch before sampling the replication
// log (otherwise exported window state can cover tuples the target
// re-applies through replication).
package runtime_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// flushWithin runs rt.Flush under a watchdog: the trimmed-log resync
// bug was a livelock, and a hung Flush should fail the test, not stall
// the whole run until the go test timeout.
func flushWithin(t *testing.T, rt *runtime.Runtime, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { rt.Flush(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("Flush did not complete: replication shipper is stuck")
	}
}

// TestReadoptPromotedPrimaryNotSelfFollower: the original primary dies,
// a follower is promoted, then the promoted follower dies too with no
// healthy candidate left. When it comes back, re-adoption must resume
// it as the route's serving primary — NOT additionally enlist it as a
// follower of its own stream, which would drain every publish into its
// engine and then ship the same tuples back to it through the
// replication log, double-ingesting the flow.
func TestReadoptPromotedPrimaryNotSelfFollower(t *testing.T) {
	rt := runtime.New("selfprimary", runtime.Options{Shards: 2, Replication: 2})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	in := replInput(400)
	publishChunks(t, rt, "s", cloneInput(in[:200]), 50, nil)
	rt.Flush()

	primary := rt.ShardForStream("s")
	follower := 1 - primary
	rt.FailShard(primary, errors.New("injected primary death"))
	// The follower is now the promoted primary; publishes keep flowing.
	publishChunks(t, rt, "s", cloneInput(in[200:300]), 50, nil)

	// Kill the promoted primary too: no healthy candidate remains, so
	// the route fails fast until a shard is re-adopted.
	rt.FailShard(follower, errors.New("injected promoted death"))
	if _, err := rt.PublishBatchVerdict("s", cloneInput(in[300:310])); err == nil {
		t.Fatal("publish succeeded with every replica dead")
	}

	// Re-adopt the promoted primary (its engine survived in-process;
	// a restarted dsmsd would be the remote equivalent).
	if err := rt.ReadoptShard(follower); err != nil {
		t.Fatalf("readopt shard %d: %v", follower, err)
	}
	for _, l := range rt.ReplicaLag("s") {
		if l.Shard == follower {
			t.Fatalf("re-adopted shard %d is enlisted as a follower of the stream it serves as primary", follower)
		}
	}
	publishChunks(t, rt, "s", cloneInput(in[300:]), 50, nil)
	flushWithin(t, rt, 15*time.Second)

	// Every accepted tuple must be in the serving engine exactly once:
	// a self-follower would re-ingest everything published after the
	// re-adoption through the replication log.
	if got, want := localEngineSeq(t, rt, follower, "s"), uint64(400); got != want {
		t.Fatalf("promoted primary sealed %d tuples, want %d (double ingest via self-replication?)", got, want)
	}
	checkInvariant(t, rt)
}

// restartableBackend delegates to a swappable LocalBackend, so a test
// can model a follower process that dies and restarts empty. While
// refuseSubscribe is set, Subscribe fails as a dial to a dying process
// would.
type restartableBackend struct {
	mu              sync.Mutex
	inner           *runtime.LocalBackend
	refuseSubscribe atomic.Bool
}

func (b *restartableBackend) cur() *runtime.LocalBackend {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inner
}

// swap replaces the backend with a fresh one, as a restarted process
// that remembers nothing (engine state and replication positions gone).
func (b *restartableBackend) swap(nb *runtime.LocalBackend) {
	b.mu.Lock()
	b.inner = nb
	b.mu.Unlock()
}

func (b *restartableBackend) Kind() string { return "restartable" }
func (b *restartableBackend) CreateStream(name string, schema *stream.Schema) error {
	return b.cur().CreateStream(name, schema)
}
func (b *restartableBackend) DropStream(name string) error { return b.cur().DropStream(name) }
func (b *restartableBackend) StreamSchema(name string) (*stream.Schema, error) {
	return b.cur().StreamSchema(name)
}
func (b *restartableBackend) IngestBatch(name string, ts []stream.Tuple, sp *telemetry.Span) error {
	return b.cur().IngestBatch(name, ts, sp)
}
func (b *restartableBackend) PutPart(name string, req runtime.DeployRequest, st *dsms.QueryState) (runtime.BackendDeployment, error) {
	return b.cur().PutPart(name, req, st)
}
func (b *restartableBackend) DeletePart(name string) error { return b.cur().DeletePart(name) }
func (b *restartableBackend) ListParts() ([]string, error) { return b.cur().ListParts() }
func (b *restartableBackend) Subscribe(name string, push func([]stream.Tuple), end func()) (func(), error) {
	if b.refuseSubscribe.Load() {
		return nil, errors.New("injected subscribe failure")
	}
	return b.cur().Subscribe(name, push, end)
}
func (b *restartableBackend) Healthy() bool { return b.cur().Healthy() }
func (b *restartableBackend) Close() error  { return b.cur().Close() }
func (b *restartableBackend) Replicate(name string, log, base uint64, reset bool, ts []stream.Tuple) (uint64, error) {
	return b.cur().Replicate(name, log, base, reset, ts)
}
func (b *restartableBackend) ExportQueryState(id string) (*dsms.QueryState, error) {
	return b.cur().ExportQueryState(id)
}

// TestTrimmedLogFollowerRestartResync: a follower restarts empty after
// the bounded replication log has trimmed (base > 0). The rejoined
// follower's position is unknown until its first reply, which states
// 0; the shipper counts the trimmed prefix as the follower's gap and
// re-feeds the retained tail with the gap declared — instead of
// bouncing off the base-ahead check forever, or guessing a position
// the follower never reported.
func TestTrimmedLogFollowerRestartResync(t *testing.T) {
	backends := []runtime.ShardBackend{
		&restartableBackend{inner: runtime.NewLocalBackend(dsms.NewEngine("r0"))},
		&restartableBackend{inner: runtime.NewLocalBackend(dsms.NewEngine("r1"))},
	}
	const logMax = 256
	rt := runtime.NewWithBackends("trim", runtime.Options{Replication: 2, ReplicationLog: logMax}, backends)
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}

	// Publish far past the log bound so the retained window slides:
	// after this, log base > 0 and the oldest tuples exist nowhere but
	// in the engines.
	const n1 = 4 * logMax
	publishChunks(t, rt, "s", cloneInput(replInput(n1)), 128, nil)
	flushWithin(t, rt, 15*time.Second)

	follower := followerShards(rt, "s")[0]
	fb := backends[follower].(*restartableBackend)

	// Kill the follower and restart it empty on the same slot. Gaps is
	// a cumulative per-slot counter (the first incarnation may already
	// have taken a gap if the publish burst outran its shipper), so
	// snapshot it here and assert on the restart's delta below.
	rt.FailShard(follower, errors.New("injected follower death"))
	gapsBefore := replicaLagOf(rt, "s", follower).Gaps
	fb.swap(runtime.NewLocalBackend(dsms.NewEngine("r-reborn")))
	if err := rt.ReadoptShard(follower); err != nil {
		t.Fatalf("readopt shard %d: %v", follower, err)
	}

	// More flow, then Flush: under the livelock this never returned
	// (the follower could not advance), under the fix the shipper
	// re-feeds the retained tail and catches up.
	const n2 = 300
	publishChunks(t, rt, "s", cloneInput(replInput(n2)), 100, nil)
	flushWithin(t, rt, 15*time.Second)

	lag := replicaLagOf(rt, "s", follower)
	if lag.Lag != 0 || lag.Paused {
		t.Fatalf("follower lag after Flush: %+v, want caught up and unpaused", lag)
	}
	gapDelta := lag.Gaps - gapsBefore
	if gapDelta == 0 {
		t.Fatal("restart took no gap: the log cannot have trimmed, test lost its premise")
	}
	if gapDelta >= n1+n2 {
		t.Fatalf("restart gap %d swallowed the whole flow of %d (resync never re-fed the retained tail)", gapDelta, n1+n2)
	}
	// Accounting identity: every published tuple was either re-fed to
	// the restarted engine or counted against this incarnation's gap,
	// and the follower's absolute applied position reached the log
	// head. The pre-fix livelock broke this visibly — Gaps grew by
	// base per retry tick and the applied position stayed at zero.
	applied, err := runtime.ReplicaApplied(rt, fb, "s")
	if err != nil {
		t.Fatal(err)
	}
	if seq := localSeqOf(t, fb.cur(), "s"); seq+gapDelta != n1+n2 || applied != n1+n2 {
		t.Fatalf("restarted follower sealed %d, applied %d, restart gap %d; want sealed+gap == %d and applied == %d",
			seq, applied, gapDelta, n1+n2, n1+n2)
	}
	checkInvariant(t, rt)
}

// replicaLagOf returns one follower's ReplicaLag entry for a stream
// (zero value if the follower has none).
func replicaLagOf(rt *runtime.Runtime, name string, shard int) runtime.ReplicaLag {
	for _, l := range rt.ReplicaLag(name) {
		if l.Shard == shard {
			return l
		}
	}
	return runtime.ReplicaLag{}
}

// localSeqOf reads the sealed sequence counter of a backend's engine.
func localSeqOf(t *testing.T, lb *runtime.LocalBackend, name string) uint64 {
	t.Helper()
	seq, err := lb.Engine().StreamSeq(name)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// fencedIngestBackend delays the engine ingest of drained batches and
// records whether a query-state export ever overlapped one: the
// migration fence must guarantee the paused primary's in-flight batch
// has fully landed before state is exported.
type fencedIngestBackend struct {
	*runtime.LocalBackend
	slow                 atomic.Bool
	inflight             atomic.Int32
	ingestStarted        chan struct{}
	startedOnce          sync.Once
	exportDuringInflight atomic.Bool
}

func (b *fencedIngestBackend) IngestBatch(name string, ts []stream.Tuple, sp *telemetry.Span) error {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	if b.slow.Load() {
		b.startedOnce.Do(func() { close(b.ingestStarted) })
		time.Sleep(200 * time.Millisecond)
	}
	return b.LocalBackend.IngestBatch(name, ts, sp)
}

func (b *fencedIngestBackend) ExportQueryState(id string) (*dsms.QueryState, error) {
	if b.inflight.Load() > 0 {
		b.exportDuringInflight.Store(true)
	}
	return b.LocalBackend.ExportQueryState(id)
}

// TestMigrateQueryFencesInflightBatch publishes a batch whose engine
// ingest is artificially slow and migrates the query while that batch
// is mid-drain: MigrateQuery must wait the batch out (pause alone does
// not drain it) before flushing replication and exporting state, so
// the exported window never contains tuples the target has yet to
// apply. The golden comparison then proves no tuple was processed
// twice across the migration.
func TestMigrateQueryFencesInflightBatch(t *testing.T) {
	win := dsms.WindowSpec{Type: dsms.WindowTime, Size: 200, Step: 50}
	input := replInput(300)
	want := referenceEmissions(t, input, win)

	backends := []runtime.ShardBackend{
		&fencedIngestBackend{
			LocalBackend:  runtime.NewLocalBackend(dsms.NewEngine("m0")),
			ingestStarted: make(chan struct{}),
		},
		&fencedIngestBackend{
			LocalBackend:  runtime.NewLocalBackend(dsms.NewEngine("m1")),
			ingestStarted: make(chan struct{}),
		},
	}
	rt := runtime.NewWithBackends("fence", runtime.Options{Replication: 2}, backends)
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	dep, err := rt.Deploy(replAggGraph("s", win))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe(dep.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	primary := rt.ShardForStream("s")
	target := followerShards(rt, "s")[0]
	pb := backends[primary].(*fencedIngestBackend)

	// Steady prefix, fully settled.
	publishChunks(t, rt, "s", cloneInput(input[:200]), 50, nil)
	rt.Flush()

	// One slow batch: by the time MigrateQuery runs, the worker has
	// popped it and is stuck inside the engine ingest — exactly the
	// in-flight window the fence must cover.
	pb.slow.Store(true)
	if v, err := rt.PublishBatchVerdict("s", cloneInput(input[200:250])); err != nil || v.Accepted != 50 {
		t.Fatalf("slow batch: %+v, %v", v, err)
	}
	select {
	case <-pb.ingestStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("slow batch never reached the backend")
	}
	if err := rt.MigrateQuery(dep.ID, target); err != nil {
		t.Fatalf("migrate to %d: %v", target, err)
	}
	pb.slow.Store(false)
	if pb.exportDuringInflight.Load() {
		t.Fatal("query state exported while a drained batch was still ingesting: migration fence is broken")
	}

	publishChunks(t, rt, "s", cloneInput(input[250:]), 50, nil)
	rt.Flush()

	got := collectEmissions(t, sub, len(want))
	sameEmissions(t, got, want)
	checkInvariant(t, rt)
}
