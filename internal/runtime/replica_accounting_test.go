// Replication accounting regressions: schedules in which a follower's
// engine and the shipper's counters disagreed while every counter
// stayed clean. Each holds the schedule deterministically (a
// Replicate held on a channel, a drain watched through IngestBatch),
// never by a sleep, and checks sealed + gaps == applied per follower.
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

// heldBackend is a restartable backend whose next non-empty Replicate,
// once armed, is held in flight until released and then fails in
// transport: a follower killed mid-ship. Its next IngestBatch can be
// held the same way: a primary killed mid-batch. It also reports how
// far the shard worker's drain has come: a call entering IngestBatch
// proves that every earlier call's tuples were appended to the
// replication log, which the worker does right after each ingest.
type heldBackend struct {
	restartableBackend
	hold          atomic.Bool
	entered       chan struct{}
	release       chan struct{}
	holdIngest    atomic.Bool
	ingestEntered chan struct{}
	ingestRelease chan struct{}
	mu            sync.Mutex
	cond          *sync.Cond
	ingested      uint64 // tuples of finished IngestBatch calls
	drained       uint64 // ingested, as of the latest call's entry
}

func newHeldBackend(name string) *heldBackend {
	b := &heldBackend{
		restartableBackend: restartableBackend{inner: runtime.NewLocalBackend(dsms.NewEngine(name))},
		entered:            make(chan struct{}),
		release:            make(chan struct{}),
		ingestEntered:      make(chan struct{}),
		ingestRelease:      make(chan struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *heldBackend) Replicate(name string, log, base uint64, reset bool, ts []stream.Tuple) (uint64, error) {
	if len(ts) > 0 && b.hold.CompareAndSwap(true, false) {
		close(b.entered)
		<-b.release
		return 0, errors.New("injected: connection died with the follower")
	}
	return b.restartableBackend.Replicate(name, log, base, reset, ts)
}

func (b *heldBackend) IngestBatch(name string, ts []stream.Tuple, sp *telemetry.Span) error {
	if b.holdIngest.CompareAndSwap(true, false) {
		close(b.ingestEntered)
		<-b.ingestRelease
		sp.Finish()
		return errors.New("injected: connection died with the primary")
	}
	b.mu.Lock()
	b.drained = b.ingested
	b.cond.Broadcast()
	b.mu.Unlock()
	err := b.restartableBackend.IngestBatch(name, ts, sp)
	b.mu.Lock()
	b.ingested += uint64(len(ts))
	b.cond.Broadcast()
	b.mu.Unlock()
	return err
}

// waitAppended blocks until n tuples are in the replication log: once
// n are ingested, it publishes a marker tuple, whose IngestBatch is
// then a later call than theirs.
func (b *heldBackend) waitAppended(t *testing.T, rt *runtime.Runtime, n uint64) {
	b.mu.Lock()
	for b.ingested < n {
		b.cond.Wait()
	}
	b.mu.Unlock()
	publishChunks(t, rt, "s", cloneInput(replInput(1)), 1, nil)
	b.mu.Lock()
	for b.drained < n {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// TestRejoinLearnsPositionBeforeTrim replays the schedule measured
// behind TestTrimmedLogFollowerRestartResync's flake. A follower is
// killed with a ship in flight and restarted empty; it is re-adopted,
// and the primary publishes far enough to trim the log before the
// shipper's first ship to the reborn engine. A shipper that guessed
// the rejoined follower's position (the oldest retained entry) counts
// only the gap between its guess and the new log base, and the empty
// engine jumps over everything before the guess uncounted. The
// follower's position must be the one its first reply states (0), so
// the whole trimmed prefix is its gap.
func TestRejoinLearnsPositionBeforeTrim(t *testing.T) {
	backends := []*heldBackend{newHeldBackend("h0"), newHeldBackend("h1")}
	const logMax = 64
	rt := runtime.NewWithBackends("held", runtime.Options{Replication: 2, ReplicationLog: logMax},
		[]runtime.ShardBackend{backends[0], backends[1]})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	follower := followerShards(rt, "s")[0]
	pb, fb := backends[1-follower], backends[follower]

	const n1, k, n2 = 4 * logMax, 8, 3 * logMax
	publishChunks(t, rt, "s", cloneInput(replInput(n1)), 32, nil)
	flushWithin(t, rt, 15*time.Second)

	// A ship is in flight when the follower dies.
	fb.hold.Store(true)
	publishChunks(t, rt, "s", cloneInput(replInput(k)), k, nil)
	<-fb.entered
	rt.FailShard(follower, errors.New("injected follower death"))
	gapsBefore := replicaLagOf(rt, "s", follower).Gaps
	fb.swap(runtime.NewLocalBackend(dsms.NewEngine("h-reborn")))
	if err := rt.ReadoptShard(follower); err != nil {
		t.Fatalf("readopt shard %d: %v", follower, err)
	}

	// Trim the log past everything the dead ship carried before the
	// shipper's first ship to the reborn engine.
	publishChunks(t, rt, "s", cloneInput(replInput(n2)), 32, nil)
	pb.waitAppended(t, rt, n1+k+n2)
	close(fb.release)
	flushWithin(t, rt, 15*time.Second)

	const total = n1 + k + n2 + 1
	lag := replicaLagOf(rt, "s", follower)
	gapDelta := lag.Gaps - gapsBefore
	applied, err := runtime.ReplicaApplied(rt, fb, "s")
	if err != nil {
		t.Fatal(err)
	}
	seq := localSeqOf(t, fb.cur(), "s")
	if lag.Lag != 0 || seq+gapDelta != total || applied != total {
		t.Fatalf("reborn follower sealed %d, applied %d, restart gap %d, lag %d; want sealed+gap == applied == %d and lag 0",
			seq, applied, gapDelta, lag.Lag, total)
	}
	if gapDelta == 0 {
		t.Fatal("restart took no gap: the log cannot have trimmed, test lost its premise")
	}
	if lag.Resyncs == 0 {
		t.Error("the dropped ship and the reborn engine's first reply counted no resync")
	}
	checkInvariant(t, rt)
}

// TestDeposedOwnerRejoinsEmpty: a stream's owner shard fails, its
// follower is promoted, and the owner is re-adopted with its engine
// intact. The owner rejoins as a follower of its own stream; the
// tuples it ingested as primary moved no replication position, so it
// must rejoin empty rather than re-apply the whole retained log on top
// of them.
func TestDeposedOwnerRejoinsEmpty(t *testing.T) {
	rt := runtime.New("deposed", runtime.Options{Shards: 2, Replication: 2})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	owner := rt.ShardForStream("s")
	follower := followerShards(rt, "s")[0]
	publishChunks(t, rt, "s", cloneInput(replInput(200)), 50, nil)
	flushWithin(t, rt, 15*time.Second)

	rt.FailShard(owner, errors.New("injected owner death"))
	if err := rt.ReadoptShard(owner); err != nil {
		t.Fatalf("readopt shard %d: %v", owner, err)
	}
	publishChunks(t, rt, "s", cloneInput(replInput(100)), 50, nil)
	flushWithin(t, rt, 15*time.Second)

	primary, deposed := localEngineSeq(t, rt, follower, "s"), localEngineSeq(t, rt, owner, "s")
	lag := replicaLagOf(rt, "s", owner)
	if primary != 300 || deposed+lag.Gaps != primary || lag.Lag != 0 {
		t.Fatalf("primary sealed %d, deposed owner sealed %d with %+v; want 300 and sealed+gaps == 300 at lag 0",
			primary, deposed, lag)
	}
	checkInvariant(t, rt)
}

// survivingBackend is a local backend whose engine outlives the
// runtime that closes it, as a dsmsd outlives an exacmld restart.
type survivingBackend struct{ *runtime.LocalBackend }

func (survivingBackend) Close() error { return nil }

// TestFollowerSurvivesRuntimeRestart: a replicated stream's engines
// outlive the runtime, and a new runtime adopts the stream and
// publishes on. The follower's position in the old log is not a
// position in the new one: the new log's tuples must all reach it.
func TestFollowerSurvivesRuntimeRestart(t *testing.T) {
	var backends []runtime.ShardBackend
	for _, name := range []string{"sv0", "sv1"} {
		eng := dsms.NewEngine(name)
		t.Cleanup(eng.Close)
		backends = append(backends, survivingBackend{runtime.NewLocalBackend(eng)})
	}
	first := runtime.NewWithBackends("before", runtime.Options{Replication: 2}, backends)
	if err := first.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	publishChunks(t, first, "s", cloneInput(replInput(200)), 50, nil)
	flushWithin(t, first, 15*time.Second)
	first.Close()

	rt := runtime.NewWithBackends("after", runtime.Options{Replication: 2}, backends)
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	publishChunks(t, rt, "s", cloneInput(replInput(100)), 50, nil)
	flushWithin(t, rt, 15*time.Second)

	follower := followerShards(rt, "s")[0]
	lag := replicaLagOf(rt, "s", follower)
	seq := func(i int) uint64 { return localSeqOf(t, backends[i].(survivingBackend).LocalBackend, "s") }
	if p, f := seq(rt.ShardForStream("s")), seq(follower); p != 300 || f+lag.Gaps != p || lag.Lag != 0 {
		t.Fatalf("primary sealed %d, follower sealed %d with %+v; want 300 and sealed+gaps == 300 at lag 0", p, f, lag)
	}
	checkInvariant(t, rt)
}
