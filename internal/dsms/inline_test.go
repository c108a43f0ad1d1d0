package dsms

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/stream"
)

// TestConcurrentIngestKeepsSeqOrder has four publishers race
// IngestBatch into one stream: the attached query must see the
// stream's tuples in Seq order, whichever publisher sealed them.
func TestConcurrentIngestKeepsSeqOrder(t *testing.T) {
	e := NewEngine("order")
	defer e.Close()
	if err := e.CreateStream("s", singleAttrSchema()); err != nil {
		t.Fatal(err)
	}
	dep, err := e.Deploy(NewQueryGraph("s", NewFilterBox(expr.MustParse("a >= 0"))))
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	var seen, inversions int
	if _, err := e.Attach(dep.ID, func(ts []stream.Tuple) {
		for _, tu := range ts {
			if tu.Seq <= last {
				inversions++
			}
			last = tu.Seq
			seen++
		}
	}, func() {}); err != nil {
		t.Fatal(err)
	}

	const publishers, batches, size = 4, 2000, 8
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]stream.Tuple, size)
			for b := 0; b < batches; b++ {
				for i := range batch {
					batch[i] = stream.NewTuple(stream.IntValue(int64(i)))
				}
				if err := e.IngestBatch("s", batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	e.Flush()
	if want := publishers * batches * size; seen != want {
		t.Errorf("query saw %d tuples, want %d", seen, want)
	}
	if inversions > 0 {
		t.Errorf("query saw Seq go backwards %d times", inversions)
	}
}

// TestWithdrawDoesNotWaitForAnotherQuery stalls a staged query's
// lossless subscriber until the publisher blocks delivering to it:
// withdrawing another query on the same stream must still return.
func TestWithdrawDoesNotWaitForAnotherQuery(t *testing.T) {
	e := NewEngine("stall")
	defer e.Close()
	if err := e.CreateStream("s", singleAttrSchema()); err != nil {
		t.Fatal(err)
	}
	a, err := e.Deploy(NewQueryGraph("s", NewFilterBox(expr.MustParse("a >= 0"))))
	if err != nil {
		t.Fatal(err)
	}
	staged := NewQueryGraph("s", NewFilterBox(expr.MustParse("a >= 0")))
	staged.Stage = &StageSpec{Mode: StageRelay}
	b, err := e.Deploy(staged)
	if err != nil {
		t.Fatal(err)
	}
	stalled, published := stallStagedSubscriber(t, e, b.ID)

	withdrawn := make(chan struct{})
	go func() {
		defer close(withdrawn)
		if err := e.Withdraw(a.ID); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-withdrawn:
	case <-time.After(5 * time.Second):
		t.Error("Withdraw of one query waited for another query's stalled subscriber")
	}
	e.Unsubscribe(b.ID, stalled)
	<-published
	<-withdrawn
}

// stallStagedSubscriber subscribes to the staged query id (lossless)
// and never reads, then publishes into its stream from a goroutine
// until that publisher blocks on the full buffer. published closes when
// the publisher is through.
func stallStagedSubscriber(t *testing.T, e *Engine, id string) (stalled *Subscription, published <-chan struct{}) {
	t.Helper()
	stalled, err := e.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := make([]stream.Tuple, 8)
		for n := 0; n < 2*DefaultSubscriptionBuffer; n += len(batch) {
			for i := range batch {
				batch[i] = stream.NewTuple(stream.IntValue(int64(n + i)))
			}
			_ = e.IngestBatch("s", batch)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(stalled.C) < cap(stalled.C) {
		if time.Now().After(deadline) {
			t.Fatal("the staged subscriber's buffer never filled")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the publisher block on the full buffer
	return stalled, done
}

// TestStopDoesNotWaitForStalledConsumer stalls a staged query's
// lossless subscriber until the publisher blocks delivering to it:
// withdrawing that very query, dropping its stream and closing the
// engine must each return anyway, and end the stalled subscription.
func TestStopDoesNotWaitForStalledConsumer(t *testing.T) {
	for _, row := range []struct {
		name string
		stop func(e *Engine, id string) error
	}{
		{"Withdraw", func(e *Engine, id string) error { return e.Withdraw(id) }},
		{"DropStream", func(e *Engine, _ string) error { return e.DropStream("s") }},
		{"Close", func(e *Engine, _ string) error { e.Close(); return nil }},
	} {
		t.Run(row.name, func(t *testing.T) {
			e := NewEngine("stall")
			defer e.Close()
			if err := e.CreateStream("s", singleAttrSchema()); err != nil {
				t.Fatal(err)
			}
			staged := NewQueryGraph("s", NewFilterBox(expr.MustParse("a >= 0")))
			staged.Stage = &StageSpec{Mode: StageRelay}
			dep, err := e.Deploy(staged)
			if err != nil {
				t.Fatal(err)
			}
			stalled, published := stallStagedSubscriber(t, e, dep.ID)

			stopped := make(chan error, 1)
			go func() { stopped <- row.stop(e, dep.ID) }()
			select {
			case err := <-stopped:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				t.Errorf("%s waited for a consumer that never reads", row.name)
				e.Unsubscribe(dep.ID, stalled)
				<-stopped
			}
			for range stalled.C {
			}
			<-published
		})
	}
}

// TestDeployStartsNoGoroutine deploys and withdraws 100 queries: a
// deployed query is data the sealing publisher runs, not a goroutine.
func TestDeployStartsNoGoroutine(t *testing.T) {
	e := NewEngine("goroutines")
	defer e.Close()
	if err := e.CreateStream("s", singleAttrSchema()); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ids := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		dep, err := e.Deploy(NewQueryGraph("s", NewFilterBox(expr.MustParse("a >= 0"))))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, dep.ID)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("100 deploys grew the goroutine count from %d to %d", before, after)
	}
	if err := e.Ingest("s", stream.NewTuple(stream.IntValue(1))); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := e.Withdraw(id); err != nil {
			t.Fatal(err)
		}
	}
}
