package runtime_test

import (
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/coarsetime"
	"repro/internal/dsms"
	"repro/internal/runtime"
	"repro/internal/streamql"
	"repro/internal/telemetry"
)

// TestSubscriptionDeliveredPlusDroppedIsEmitted stalls a subscription's
// consumer past its buffer on every query shape, then drains it: each
// emission must be delivered or counted in Dropped exactly once,
// delivered + Dropped() == emitted, with one buffer's worth delivered.
// For a remote part this holds only while its dsmsd's own engine
// subscription never sheds (those sheds count on the dsmsd alone), so
// the publishes are paced to keep that buffer from filling.
// On a replicated stream both replicas emit every tuple, and a drop
// must still count once, and exacml_subscription_dropped_total counts
// exactly what Dropped does. Closing the subscription must return the
// goroutine count to its baseline.
func TestSubscriptionDeliveredPlusDroppedIsEmitted(t *testing.T) {
	const decl = "CREATE INPUT STREAM %s (key string, i int, d double, s string); CREATE OUTPUT STREAM o; "
	filter := decl + "SELECT * FROM %s WHERE i >= 0 INTO o;"
	staged := decl + "CREATE WINDOW w (SIZE 2 ADVANCE 1 TUPLES); SELECT sum(i) AS total FROM %s[w] INTO o;"
	shapes := []struct {
		name        string
		open        func(t *testing.T, reg *telemetry.Registry) *runtime.Runtime
		partitioned bool
		script      string
	}{
		{"single-shard", func(t *testing.T, reg *telemetry.Registry) *runtime.Runtime {
			return runtime.New("ident-single", runtime.Options{Shards: 1, Metrics: reg})
		}, false, filter},
		{"partitioned-filter", func(t *testing.T, reg *telemetry.Registry) *runtime.Runtime {
			return runtime.New("ident-part", runtime.Options{Shards: 2, Metrics: reg})
		}, true, filter},
		{"replicated-local", func(t *testing.T, reg *telemetry.Registry) *runtime.Runtime {
			return runtime.New("ident-repl", runtime.Options{Shards: 2, Replication: 2, Metrics: reg})
		}, false, filter},
		{"replicated-remote-primary", func(t *testing.T, reg *telemetry.Registry) *runtime.Runtime {
			srv, addr := startDSMSD(t, "ident-remote-d", nil)
			t.Cleanup(srv.Engine.Close)
			t.Cleanup(srv.Close)
			return runtime.New("ident-remote", runtime.Options{Replication: 2, Metrics: reg, Backends: []runtime.BackendSpec{
				{Addr: addr, Remote: fastRemote()}, {Addr: "local"}}})
		}, false, filter},
		{"staged-aggregate", func(t *testing.T, reg *telemetry.Registry) *runtime.Runtime {
			return runtime.New("ident-staged", runtime.Options{Shards: 2, Metrics: reg})
		}, true, staged},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			rt := sh.open(t, reg)
			defer rt.Close()
			// The stream lives on shard 0: the remote primary, where
			// there is one.
			name := streamNamesPerShard(t, rt)[0]
			var err error
			if sh.partitioned {
				err = rt.CreatePartitionedStream(name, mergeSchema(), "key")
			} else {
				err = rt.CreateStream(name, mergeSchema())
			}
			if err != nil {
				t.Fatal(err)
			}
			script := fmt.Sprintf(sh.script, name, name)
			id, _, err := rt.DeployScript(script)
			if err != nil {
				t.Fatal(err)
			}
			in := keyedTuples(0, 4*dsms.DefaultSubscriptionBuffer)
			c, err := streamql.CompileString(script)
			if err != nil {
				t.Fatal(err)
			}
			ref := cloneInput(in)
			for i := range ref {
				ref[i].Seq = uint64(i + 1)
			}
			want, _, err := dsms.RunGraphOnSlice(c.Graph, mergeSchema(), ref)
			if err != nil {
				t.Fatal(err)
			}
			emitted := uint64(len(want))

			coarsetime.NowMillis() // the first publish starts the process-wide clock for good
			baseline := goruntime.NumGoroutine()
			sub, err := rt.Subscribe(id)
			if err != nil {
				t.Fatal(err)
			}
			// The consumer stalls while every tuple is published. Small
			// flushed chunks keep a dsmsd's own subscription buffer from
			// filling — the identity's precondition for a remote part,
			// whose dsmsd-side sheds Dropped cannot see.
			for from := 0; from < len(in); from += 128 {
				if v, err := rt.PublishBatchVerdict(name, in[from:from+128]); err != nil || v.Accepted != 128 {
					t.Fatalf("publish [%d,%d) = %+v, %v", from, from+128, v, err)
				}
				rt.Flush()
			}

			var delivered uint64
			deadline := time.After(10 * time.Second)
			for delivered+sub.Dropped() < emitted {
				select {
				case _, ok := <-sub.C:
					if !ok {
						t.Fatalf("subscription closed after %d delivered + %d dropped of %d emitted", delivered, sub.Dropped(), emitted)
					}
					delivered++
				case <-deadline:
					t.Fatalf("%d delivered + %d dropped after 10s, want %d emitted", delivered, sub.Dropped(), emitted)
				}
			}
			// Anything late would be a second count of some emission.
			quiet := time.After(200 * time.Millisecond)
		settle:
			for {
				select {
				case _, ok := <-sub.C:
					if !ok {
						t.Fatal("subscription closed before Close")
					}
					delivered++
				case <-quiet:
					break settle
				}
			}
			dropped := sub.Dropped()
			if delivered+dropped != emitted {
				t.Errorf("delivered %d + dropped %d = %d, want emitted %d", delivered, dropped, delivered+dropped, emitted)
			}
			if exported := reg.Counter("exacml_subscription_dropped_total", "").Load(); exported != dropped {
				t.Errorf("exacml_subscription_dropped_total = %d, Dropped() = %d", exported, dropped)
			}
			if dropped == 0 || delivered > dsms.DefaultSubscriptionBuffer {
				t.Errorf("stalled consumer got %d deliveries and %d drops: want one buffer (%d) delivered and the rest dropped",
					delivered, dropped, dsms.DefaultSubscriptionBuffer)
			}

			sub.Close()
			for end := time.Now().Add(5 * time.Second); goruntime.NumGoroutine() > baseline; {
				if time.Now().After(end) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines 5s after Close, %d before Subscribe\n%s", goruntime.NumGoroutine(), baseline, buf[:goruntime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestSubscribeSkipsPartThatFailsToAttach: on a replicated stream the
// primary's shard refuses the subscribe (its process is dying but not
// yet declared down). Subscribe must still return a live subscription,
// served by the standby, with every emission delivered — a part that
// never attached must not end the subscription.
func TestSubscribeSkipsPartThatFailsToAttach(t *testing.T) {
	backends := []*restartableBackend{
		{inner: runtime.NewLocalBackend(dsms.NewEngine("sf0"))},
		{inner: runtime.NewLocalBackend(dsms.NewEngine("sf1"))},
	}
	rt := runtime.NewWithBackends("subfail", runtime.Options{Replication: 2},
		[]runtime.ShardBackend{backends[0], backends[1]})
	defer rt.Close()
	name := streamNamesPerShard(t, rt)[0] // primary on shard 0
	if err := rt.CreateStream(name, mergeSchema()); err != nil {
		t.Fatal(err)
	}
	id, _, err := rt.DeployScript(fmt.Sprintf(
		"CREATE INPUT STREAM %s (key string, i int, d double, s string); CREATE OUTPUT STREAM o; SELECT * FROM %s WHERE i >= 0 INTO o;",
		name, name))
	if err != nil {
		t.Fatal(err)
	}
	backends[0].refuseSubscribe.Store(true)
	sub, err := rt.Subscribe(id)
	if err != nil {
		t.Fatalf("subscribe with the standby live: %v", err)
	}
	defer sub.Close()
	const n = 200
	if v, err := rt.PublishBatchVerdict(name, keyedTuples(0, n)); err != nil || v.Accepted != n {
		t.Fatalf("publish = %+v, %v", v, err)
	}
	rt.Flush()
	deadline := time.After(10 * time.Second)
	for got := 0; got < n; got++ {
		select {
		case tu, ok := <-sub.C:
			if !ok {
				t.Fatalf("subscription closed after %d of %d emissions", got, n)
			}
			if i := tu.Values[1].Int(); i != int64(got) {
				t.Fatalf("emission %d carries i=%d", got, i)
			}
		case <-deadline:
			t.Fatalf("%d of %d emissions after 10s", got, n)
		}
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("Dropped() = %d, want 0", d)
	}
}
