// Goroutine accounting shared by the runtime's tests: what a test
// starts must be gone once it is done, and a runtime at rest runs
// nothing in the background.
package runtime_test

import (
	stdruntime "runtime"
	"testing"
	"time"

	"repro/internal/coarsetime"
	"repro/internal/runtime"
	"repro/internal/stream"
)

// checkGoroutinesSettle fails the test unless the goroutine count falls
// to at most before+slack within 10s: connection readers, probes and
// health goroutines unwind asynchronously after Close.
func checkGoroutinesSettle(t *testing.T, before, slack int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := stdruntime.NumGoroutine()
		if n <= before+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after\n%s", before, n, buf[:stdruntime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// noGoroutineLeak checks, once the test and its deferred closes are
// done, that everything it started has exited. The baseline is taken
// with the process-wide clock running: the first publish starts it for
// good.
func noGoroutineLeak(t *testing.T) {
	coarsetime.NowMillis()
	before := stdruntime.NumGoroutine()
	t.Cleanup(func() { checkGoroutinesSettle(t, before, 0) })
}

// TestShardsStartNoGoroutine checks that a shard is a lock, not a
// goroutine: a runtime of four in-process shards that has published
// and flushed runs nothing in the background, before it is closed.
func TestShardsStartNoGoroutine(t *testing.T) {
	coarsetime.NowMillis()
	before := stdruntime.NumGoroutine()
	rt := runtime.New("idle", runtime.Options{Shards: 4})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	batch := []stream.Tuple{mkTuple(1, 1000), mkTuple(2, 2000), mkTuple(3, 3000)}
	if n, err := rt.PublishBatch("s", batch); err != nil || n != len(batch) {
		t.Fatalf("publish = %d, %v", n, err)
	}
	rt.Flush()
	if got := rt.Stats().Total().Ingested; got != uint64(len(batch)) {
		t.Fatalf("ingested %d, want %d", got, len(batch))
	}
	checkGoroutinesSettle(t, before, 0)
}
