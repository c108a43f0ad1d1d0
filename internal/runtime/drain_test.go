// Drain regressions: a publish that finds a shard's drain running
// queues its batch behind it, and the drain ingests it. The queued
// batch must not alias the publisher's slice, and concurrent
// publishers' tuples must reach the engine each in publish order.
package runtime_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/expr"
	"repro/internal/runtime"
	"repro/internal/stream"
)

func passGraph(streamName string) *dsms.QueryGraph {
	return dsms.NewQueryGraph(streamName, dsms.NewFilterBox(expr.MustParse("a >= 0 OR a < 0")))
}

// TestQueuedBatchOwnsItsTuples holds the drain inside the engine: the
// first publisher's batch reaches a consumer attached to the engine,
// which does not return. A second publisher's batch is then queued
// behind it, and the publisher overwrites its slice as soon as the
// call returns, as batching callers do. Once the consumer lets go, the
// engine must see the values that were published.
func TestQueuedBatchOwnsItsTuples(t *testing.T) {
	noGoroutineLeak(t)
	eng := dsms.NewEngine("own")
	rt := runtime.NewWithBackends("own", runtime.Options{Shards: 1},
		[]runtime.ShardBackend{runtime.NewLocalBackend(eng)})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	dep, err := eng.Deploy(passGraph("s"))
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var seen []float64
	detach, err := eng.Attach(dep.ID, func(ts []stream.Tuple) {
		mu.Lock()
		for _, tp := range ts {
			seen = append(seen, tp.Values[0].Double())
		}
		first := len(seen) == len(ts)
		mu.Unlock()
		if first {
			close(entered)
			<-release
		}
	}, func() {})
	if err != nil {
		t.Fatal(err)
	}
	defer detach()

	if _, err := rt.PublishBatch("s", []stream.Tuple{mkTuple(1, 1000), mkTuple(2, 2000)}); err != nil {
		t.Fatal(err)
	}
	<-entered
	batch := []stream.Tuple{mkTuple(10, 3000), mkTuple(11, 4000), mkTuple(12, 5000)}
	if n, err := rt.PublishBatch("s", batch); err != nil || n != len(batch) {
		t.Fatalf("queued publish = %d, %v", n, err)
	}
	for i := range batch {
		batch[i] = mkTuple(-1, 0)
	}
	close(release)
	rt.Flush()

	mu.Lock()
	defer mu.Unlock()
	want := []float64{1, 2, 10, 11, 12}
	if len(seen) != len(want) {
		t.Fatalf("engine saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("engine saw %v, want %v: a queued batch aliased its publisher's slice", seen, want)
		}
	}
	checkInvariant(t, rt)
}

// TestConcurrentPublishersKeepOrder has four publishers each publish
// 2,000 batches of 8 into one stream, queued behind one another for
// the shard's drain. Every publisher's tuples must reach a passthrough
// subscriber in publish order, each tuple delivered or counted
// dropped, and the shard and stream accounting must close exactly
// after Flush.
func TestConcurrentPublishersKeepOrder(t *testing.T) {
	const publishers, batches, per = 4, 2000, 8
	rt := runtime.New("order", runtime.Options{Shards: 2, QueueSize: 64})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	dep, err := rt.Deploy(passGraph("s"))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe(dep.ID)
	if err != nil {
		t.Fatal(err)
	}
	var delivered [publishers][]int
	read := make(chan struct{})
	go func() {
		defer close(read)
		for tp := range sub.C {
			v := int(tp.Values[0].Double())
			delivered[v/1e6] = append(delivered[v/1e6], v%1e6)
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]stream.Tuple, per)
			for b := 0; b < batches; b++ {
				for i := range batch {
					seq := b*per + i
					batch[i] = mkTuple(float64(p*1e6+seq), int64(seq))
				}
				if n, err := rt.PublishBatch("s", batch); err != nil || n != per {
					t.Errorf("publisher %d batch %d: accepted %d, %v", p, b, n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rt.Flush()
	checkInvariant(t, rt)
	st := rt.Stats()
	if tot := st.Total(); tot.Offered != publishers*batches*per || tot.Ingested != tot.Offered {
		t.Errorf("shard totals %+v, want %d offered and ingested", tot, publishers*batches*per)
	}
	sub.Close()
	<-read

	got := int(sub.Dropped())
	for p, seqs := range delivered {
		got += len(seqs)
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("publisher %d: tuple %d delivered after %d", p, seqs[i], seqs[i-1])
			}
		}
	}
	if got != publishers*batches*per {
		t.Errorf("delivered + dropped = %d, want %d", got, publishers*batches*per)
	}
}

// TestPublishReturnsWhileOthersFlood publishes one batch onto an idle
// shard and holds it inside the engine until three other publishers
// have queued one batch each behind it; they then flood the shard, whose engine is
// slower than they are, until the first publisher has made all of its
// publishes. All are of a blocking class. Each of its publishes must
// return while the flood goes on: no publisher is held draining what
// the others queue.
func TestPublishReturnsWhileOthersFlood(t *testing.T) {
	noGoroutineLeak(t)
	const flooders, batches, per = 3, 50, 8
	eng := dsms.NewEngine("flood")
	rt := runtime.NewWithBackends("flood", runtime.Options{Shards: 1},
		[]runtime.ShardBackend{runtime.NewLocalBackend(eng)})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	dep, err := eng.Deploy(passGraph("s"))
	if err != nil {
		t.Fatal(err)
	}
	entered, flooding := make(chan struct{}), make(chan struct{})
	first := true
	detach, err := eng.Attach(dep.ID, func([]stream.Tuple) {
		if first {
			first = false
			close(entered)
			<-flooding
		}
		time.Sleep(50 * time.Microsecond)
	}, func() {})
	if err != nil {
		t.Fatal(err)
	}
	defer detach()

	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := make([]stream.Tuple, per)
		for b := 0; b < batches; b++ {
			for i := range batch {
				batch[i] = mkTuple(float64(i), int64(b))
			}
			if n, err := rt.PublishBatch("s", batch); err != nil || n != per {
				t.Errorf("batch %d: accepted %d, %v", b, n, err)
				return
			}
		}
	}()
	<-entered
	stop := make(chan struct{})
	var started, wg sync.WaitGroup
	for f := 0; f < flooders; f++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]stream.Tuple, 64)
			for i := 0; ; i++ {
				for j := range batch {
					batch[j] = mkTuple(float64(j), int64(i))
				}
				if _, err := rt.PublishBatch("s", batch); err != nil {
					t.Errorf("flooder %d: %v", f, err)
				}
				if i == 0 {
					started.Done()
					<-flooding
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	started.Wait()
	close(flooding)

	held := false
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		held = true
	}
	close(stop)
	wg.Wait()
	<-done
	if held {
		t.Fatal("publishes still running after 30s of flooding")
	}
	rt.Flush()
	checkInvariant(t, rt)
}
