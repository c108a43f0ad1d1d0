// Self-healing tests against real dsmsd processes over loopback: a
// killed-and-restarted follower is re-adopted and re-fed from the
// replication log, a killed remote primary fails over to its local
// follower with window state intact, and a stalled (accepting but
// never answering) dsmsd cannot leak goroutines. Kills and restarts
// are scheduled with netsim.Script at logical publish counts, so the
// chaos runs are deterministic.
package runtime_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	stdruntime "runtime"
	"testing"
	"time"

	"repro/internal/dsmsd"
	"repro/internal/netsim"
	"repro/internal/runtime"
	"repro/internal/stream"
)

// publishStamped publishes one batch of pre-stamped tuples, returning
// the verdict (errors allowed: failover windows produce them).
func publishStamped(rt *runtime.Runtime, name string, seq *int, n int) (runtime.PublishVerdict, error) {
	ts := make([]stream.Tuple, n)
	for i := range ts {
		ms := int64(1000 + *seq)
		ts[i] = mkTuple(float64(*seq), ms)
		ts[i].ArrivalMillis = ms
		*seq++
	}
	return rt.PublishBatchVerdict(name, ts)
}

// TestRestartedFollowerReadoption kills a remote follower's dsmsd
// mid-run, restarts an empty replacement on the same address, and
// requires the probe to re-adopt it and the replication log to re-feed
// it to the full flow — after which the stream can still fail over
// onto it. The kill and restart fire at scripted publish counts.
func TestRestartedFollowerReadoption(t *testing.T) {
	noGoroutineLeak(t)
	srv, addr := startDSMSD(t, "follower", nil)
	var srv2 *dsmsd.Server
	readopted := make(chan struct{}, 8)

	rt := runtime.New("readopt", runtime.Options{
		Replication: 2,
		Backends: []runtime.BackendSpec{
			{}, // shard 0: local, will own the stream
			{Addr: addr, Remote: runtime.RemoteOptions{
				MaxReconnects:    2,
				ReconnectBackoff: time.Millisecond,
				HealthInterval:   3 * time.Millisecond,
				CallTimeout:      2 * time.Second,
				OnHealthEvent: func(event string, err error) {
					if event == "readopted" && err == nil {
						select {
						case readopted <- struct{}{}:
						default:
						}
					}
				},
			}},
		},
	})
	defer rt.Close()
	defer func() {
		if srv2 != nil {
			srv2.Close()
			srv2.Engine.Close()
		}
	}()

	names := streamNamesPerShard(t, rt)
	name := names[0] // owned by the local shard; remote shard follows
	if err := rt.CreateStream(name, testSchema()); err != nil {
		t.Fatal(err)
	}

	script := netsim.NewScript(
		netsim.Event{At: 6, Name: "kill-follower", Do: func() {
			srv.Close()
			srv.Engine.Close()
		}},
		netsim.Event{At: 12, Name: "restart-follower", Do: func() {
			// Wait for the probe to declare the follower down first, so
			// the restart is found by the probe's redial (a restart
			// faster than down detection is found by its new boot
			// instead: see the restart-at-kill case below).
			deadline := time.Now().Add(5 * time.Second)
			for rt.Stats().Shards[1].Healthy {
				if time.Now().After(deadline) {
					t.Error("probe never declared the killed follower down")
					return
				}
				time.Sleep(time.Millisecond)
			}
			// Rebind the same address with a fresh, empty engine (a
			// restarted process remembers nothing).
			srv2 = restartDSMSD(t, addr)
		}},
	)

	seq := 0
	for batch := 0; batch < 18; batch++ {
		v, err := publishStamped(rt, name, &seq, 25)
		if err != nil || v.Accepted != 25 {
			t.Fatalf("batch %d: verdict %+v, err %v (owner is local; follower death must not affect publishes)", batch, v, err)
		}
		script.Advance(1)
	}
	if !script.Done() {
		t.Fatal("fault script never finished")
	}

	select {
	case <-readopted:
	case <-time.After(10 * time.Second):
		t.Fatal("restarted follower was never re-adopted")
	}

	// More flow after re-adoption, then a full Flush: the replication
	// log must have re-fed the empty replacement from the base.
	if v, err := publishStamped(rt, name, &seq, 50); err != nil || v.Accepted != 50 {
		t.Fatalf("post-readopt publish: %+v, %v", v, err)
	}
	rt.Flush()
	if got, err := srv2.Engine.StreamSeq(name); err != nil || got != uint64(seq) {
		t.Fatalf("restarted follower sealed %d tuples (%v), want %d", got, err, seq)
	}
	for _, l := range rt.ReplicaLag(name) {
		if l.Lag != 0 || l.Paused {
			t.Errorf("replica lag after Flush: %+v, want caught up and unpaused", l)
		}
	}
	checkInvariant(t, rt)

	// The re-adopted follower is a real replica again: kill the owner
	// and the stream must fail over onto it.
	rt.FailShard(0, errors.New("injected owner death"))
	if v, err := publishStamped(rt, name, &seq, 50); err != nil || v.Accepted != 50 {
		t.Fatalf("post-failover publish: %+v, %v", v, err)
	}
	rt.Flush()
	if got, err := srv2.Engine.StreamSeq(name); err != nil || got != uint64(seq) {
		t.Fatalf("promoted follower sealed %d tuples (%v), want %d", got, err, seq)
	}
	checkInvariant(t, rt)
}

// TestRemotePrimaryFailoverBlastRadius kills a remote primary at a
// replication checkpoint (Flush boundary) and measures the blast
// radius: publishes error only during the down-detection window (all
// accounted — the invariant holds), the query fails over to the warm
// local standby, and the subscription sees every ingested tuple
// exactly once, in order, across the cut. In the restart-at-kill case
// an empty dsmsd takes the killed one's address at once, before down
// detection has run: the backend tells it from the killed process by
// its boot, so the query still fails over, and the restarted process
// rejoins as a follower rather than serving the stream empty.
func TestRemotePrimaryFailoverBlastRadius(t *testing.T) {
	for _, tc := range []struct {
		name    string
		restart bool
	}{{"kill", false}, {"restart-at-kill", true}} {
		t.Run(tc.name, func(t *testing.T) {
			noGoroutineLeak(t)
			remoteFailover(t, tc.restart)
		})
	}
}

func remoteFailover(t *testing.T, restart bool) {
	srv, addr := startDSMSD(t, "primary", nil)
	defer srv.Close()
	defer srv.Engine.Close()
	opts := fastRemote()
	if restart {
		// The probe re-adopts the restarted process.
		opts.HealthInterval = 3 * time.Millisecond
	}

	rt := runtime.New("blast", runtime.Options{
		Replication: 2,
		Backends: []runtime.BackendSpec{
			{Addr: addr, Remote: opts}, // shard 0: remote, owns the stream
			{},                         // shard 1: local follower
		},
	})
	defer rt.Close()

	names := streamNamesPerShard(t, rt)
	name := names[0] // owned by the remote shard
	if err := rt.CreateStream(name, testSchema()); err != nil {
		t.Fatal(err)
	}
	id, _, err := rt.DeployScript(fmt.Sprintf(
		"CREATE INPUT STREAM %s (a double, t timestamp); CREATE OUTPUT STREAM all_out; SELECT * FROM %s WHERE a > -1 INTO all_out;",
		name, name))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Phase 1: a replicated, emitted prefix. Flush is the checkpoint —
	// every accepted tuple is on the follower before the kill.
	seq := 0
	for batch := 0; batch < 6; batch++ {
		if v, err := publishStamped(rt, name, &seq, 50); err != nil || v.Accepted != 50 {
			t.Fatalf("prefix batch %d: %+v, %v", batch, v, err)
		}
	}
	rt.Flush()

	// Phase 2: kill the primary and keep publishing. Early batches are
	// accepted into the dead shard's queue and die at drain time (or
	// are refused once fail-fast engages) — all accounted as errors —
	// until the backend is declared down and the stream fails over.
	// Recovery is observed structurally: the query's active part lands
	// on the follower shard.
	srv.Close()
	srv.Engine.Close()
	if restart {
		srv2 := restartDSMSD(t, addr)
		defer srv2.Close()
		defer srv2.Engine.Close()
	}
	recovered := false
	for attempt := 0; attempt < 2000 && !recovered; attempt++ {
		if _, err := publishStamped(rt, name, &seq, 10); err != nil {
			time.Sleep(time.Millisecond)
		}
		if d, ok := rt.Query(id); ok && d.Shards()[0] == 1 {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("query never failed over to the follower after primary death")
	}
	if restart {
		deadline := time.Now().Add(10 * time.Second)
		for !rt.Stats().Shards[0].Healthy {
			if time.Now().After(deadline) {
				t.Fatal("restarted dsmsd was never re-adopted")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Phase 3: steady flow on the promoted follower.
	for batch := 0; batch < 4; batch++ {
		if v, err := publishStamped(rt, name, &seq, 50); err != nil || v.Accepted != 50 {
			t.Fatalf("post-failover batch %d: %+v, %v", batch, v, err)
		}
	}
	rt.Flush()
	checkInvariant(t, rt)

	// Blast radius: everything offered is either ingested or accounted
	// as an error from the down-detection window — nothing vanishes.
	st := rt.Stats()
	var ingested, errsAccounted, offered uint64
	for _, row := range st.Streams {
		if row.Stream == name {
			ingested, errsAccounted, offered = row.Ingested, row.Errors, row.Offered
		}
	}
	if offered != uint64(seq) {
		t.Errorf("stream offered = %d, want %d published", offered, seq)
	}
	if errsAccounted == 0 {
		t.Error("no publish errors accounted: the kill window cannot have been free")
	}
	if ingested < 300+200 {
		t.Errorf("ingested = %d, want at least the 300 pre-kill + 200 post-failover tuples", ingested)
	}

	// The query moved to the follower, and the consumer saw every
	// ingested tuple exactly once, in order: the pass-through filter
	// emits one tuple per input, so counts match and sequence numbers
	// strictly increase across the failover cut.
	d, ok := rt.Query(id)
	if !ok || d.Shards()[0] != 1 {
		t.Fatalf("query after failover = %+v (ok=%v), want it on shard 1", d, ok)
	}
	if restart {
		if l := replicaLagOf(rt, name, 0); len(rt.ReplicaLag(name)) != 1 || l.Shard != 0 || l.Lag != 0 || l.Paused {
			t.Errorf("replicas after Flush: %+v, want shard 0 rejoined as a caught-up follower", rt.ReplicaLag(name))
		}
	}
	got := collectEmissions(t, sub, int(ingested))
	if len(got) != int(ingested) {
		t.Fatalf("consumer saw %d emissions, want %d (one per ingested tuple)", len(got), ingested)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("emission %d out of order or duplicated: seq %d after %d", i, got[i].Seq, got[i-1].Seq)
		}
	}
}

// TestStalledRemoteNoGoroutineLeak hammers a dsmsd address that
// accepts connections and reads requests but never replies: every RPC
// must die on its connection deadline, and repeated
// create/fail/close cycles must not accumulate goroutines (the RPC
// timeout path is deadline-based — no watchdog goroutine per call).
func TestStalledRemoteNoGoroutineLeak(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, c) }() // read forever, never answer
		}
	}()

	before := stdruntime.NumGoroutine()
	for i := 0; i < 12; i++ {
		rt := runtime.New(fmt.Sprintf("stall%d", i), runtime.Options{
			Backends: []runtime.BackendSpec{{Addr: ln.Addr().String(), Remote: runtime.RemoteOptions{
				MaxReconnects:    1,
				ReconnectBackoff: time.Millisecond,
				HealthInterval:   -1,
				CallTimeout:      15 * time.Millisecond,
			}}},
		})
		if err := rt.CreateStream("s", testSchema()); err == nil {
			t.Fatal("stream DDL against a stalled dsmsd succeeded")
		}
		rt.Close()
	}

	checkGoroutinesSettle(t, before, 5)
}
