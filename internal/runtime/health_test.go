// Health-stream regressions: a shard's down and re-adoption apply one
// at a time, in the order they happened, so a restart that answers
// while its own failover is still draining cannot skip the promotion,
// and the audit chain records the transitions in that order.
package runtime_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/dsms"
	"repro/internal/dsmsd"
	"repro/internal/runtime"
	"repro/internal/stream"
)

// TestReadoptDuringFailoverRejoinsAsFollower restarts a replicated
// stream's primary inside its own failover: FailShard is held in its
// drain fence by an ingest the dying primary never finishes, and the
// restarted, empty primary is re-adopted inside that window. The down
// must still promote the warm follower, and the restarted shard must
// rejoin as a follower; had re-adoption slipped in first, the
// promotion would find a healthy primary and skip, leaving the empty
// engine serving the query with a short window.
func TestReadoptDuringFailoverRejoinsAsFollower(t *testing.T) {
	noGoroutineLeak(t)
	backends := []*heldBackend{newHeldBackend("h0"), newHeldBackend("h1")}
	rt := runtime.NewWithBackends("race", runtime.Options{Replication: 2},
		[]runtime.ShardBackend{backends[0], backends[1]})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	g := replAggGraph("s", dsms.WindowSpec{Type: dsms.WindowTime, Size: 200, Step: 50})
	dep, err := rt.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe(dep.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	primary := rt.ShardForStream("s")
	follower := 1 - primary
	pb := backends[primary]

	input := replInput(600)
	publishChunks(t, rt, "s", cloneInput(input[:300]), 50, nil)
	flushWithin(t, rt, 15*time.Second)

	// The primary dies with one batch in flight.
	pb.holdIngest.Store(true)
	publishChunks(t, rt, "s", cloneInput(input[300:350]), 50, nil)
	<-pb.ingestEntered
	failed := make(chan struct{})
	go func() {
		rt.FailShard(primary, errors.New("injected primary death"))
		close(failed)
	}()
	for rt.Stats().Shards[primary].Healthy {
		time.Sleep(time.Millisecond)
	}

	// It restarts empty and is re-adopted while the failover still
	// waits for its drain. Re-adoption waits for the failover; given a
	// moment, one that does not would be done before the release.
	dead := pb.cur()
	t.Cleanup(func() { _ = dead.Close() })
	pb.swap(runtime.NewLocalBackend(dsms.NewEngine("h-reborn")))
	readopted := make(chan error, 1)
	go func() { readopted <- rt.ReadoptShard(primary) }()
	select {
	case err := <-readopted:
		readopted <- err
	case <-time.After(100 * time.Millisecond):
	}
	close(pb.ingestRelease)
	<-failed
	if err := <-readopted; err != nil {
		t.Fatalf("readopt shard %d: %v", primary, err)
	}

	publishChunks(t, rt, "s", cloneInput(input[350:]), 50, nil)
	flushWithin(t, rt, 15*time.Second)

	d, ok := rt.Query(dep.ID)
	if !ok || d.Shards()[0] != follower {
		t.Errorf("query serves from shard %v (ok=%v), want the promoted follower %d", d.Shards(), ok, follower)
	}
	// Every window of the serving part is whole only if its engine holds
	// the whole accepted flow.
	if ok {
		if seq := localSeqOf(t, backends[d.Shards()[0]].cur(), "s"); seq != 550 {
			t.Errorf("serving engine sealed %d of the 550 accepted tuples: its windows come out short", seq)
		}
	}
	if l := rt.ReplicaLag("s"); len(l) != 1 || l[0].Shard != primary || l[0].Lag != 0 || l[0].Paused {
		t.Errorf("replicas after Flush: %+v, want the restarted shard %d as a caught-up follower", l, primary)
	}
	checkInvariant(t, rt)

	// The in-flight batch died with the primary; everything else was
	// accepted, and the promoted standby's window state spans the cut,
	// so the subscriber sees every window whole.
	accepted := cloneInput(append(append([]stream.Tuple(nil), input[:300]...), input[350:]...))
	want, _, err := dsms.RunGraphOnSlice(g, testSchema(), accepted)
	if err != nil {
		t.Fatal(err)
	}
	sameEmissions(t, collectEmissions(t, sub, len(want)), want)
}

// TestHealthAuditInOrder kills a remote shard's dsmsd and restarts it:
// the shard's health audit events must read down, then readopted, in
// the chain, and the chain must verify.
func TestHealthAuditInOrder(t *testing.T) {
	noGoroutineLeak(t)
	srv, addr := startDSMSD(t, "audited", nil)
	log := audit.NewLog(nil)
	applied := make(chan string, 16) // never full: one cycle, plus teardown's down
	rt := runtime.New("audited", runtime.Options{
		Audit: log,
		Backends: []runtime.BackendSpec{{Addr: addr, Remote: runtime.RemoteOptions{
			MaxReconnects:    2,
			ReconnectBackoff: time.Millisecond,
			HealthInterval:   3 * time.Millisecond,
			CallTimeout:      2 * time.Second,
			OnHealthEvent: func(event string, err error) {
				if event == "down" || event == "readopted" && err == nil {
					applied <- event
				}
			},
		}}},
	})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	wait := func(want string) {
		t.Helper()
		select {
		case got := <-applied:
			if got != want {
				t.Fatalf("health event %q applied, want %q", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no %q applied", want)
		}
	}

	srv.Close()
	srv.Engine.Close()
	wait("down")
	srv2 := restartDSMSD(t, addr)
	defer srv2.Close()
	defer srv2.Engine.Close()
	wait("readopted")

	var got []string
	for _, e := range log.Events() {
		if e.Kind == "health" && e.Resource == "shard/0" && (e.Action == "down" || e.Action == "readopted") {
			got = append(got, e.Action)
		}
	}
	if len(got) != 2 || got[0] != "down" || got[1] != "readopted" {
		t.Errorf("shard/0 health audit reads %v, want [down readopted]", got)
	}
	if i := log.Verify(); i >= 0 {
		t.Errorf("audit chain corrupt at %d", i)
	}
}

// TestReadoptTakesOver runs a replicated stream (R=2) through two
// outages on local shards (FailShard/ReadoptShard) and on remote
// dsmsds (killed, restarted empty, re-adopted by the probe):
//   - follower-back: the follower fails, then the primary, then the
//     follower comes back while the primary stays down. The follower
//     must take the stream over;
//   - primary-back: the primary fails and its follower is promoted,
//     then the primary comes back. It must rejoin as a caught-up
//     follower while the promoted shard keeps serving.
//
// Either way publishes must be accepted again and the query must serve
// from the follower.
func TestReadoptTakesOver(t *testing.T) {
	for _, kind := range []string{"local", "remote"} {
		for _, tc := range []struct {
			name string
			// outage lists the fail (+) and re-adopt (-) steps, by role.
			outage []string
		}{
			{"follower-back", []string{"+follower", "+primary", "-follower"}},
			{"primary-back", []string{"+primary", "-primary"}},
		} {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				noGoroutineLeak(t)
				h := newHealthHarness(t, kind)
				defer h.close()
				name := streamNamesPerShard(t, h.rt)[0]
				if err := h.rt.CreateStream(name, testSchema()); err != nil {
					t.Fatal(err)
				}
				id, _, err := h.rt.DeployScript(fmt.Sprintf(
					"CREATE INPUT STREAM %s (a double, t timestamp); CREATE OUTPUT STREAM all_out; SELECT * FROM %s WHERE a > -1 INTO all_out;",
					name, name))
				if err != nil {
					t.Fatal(err)
				}
				primary := h.rt.ShardForStream(name)
				follower := 1 - primary
				seq := 0
				if v, err := publishStamped(h.rt, name, &seq, 50); err != nil || v.Accepted != 50 {
					t.Fatalf("prefix: %+v, %v", v, err)
				}
				flushWithin(t, h.rt, 15*time.Second)

				for _, step := range tc.outage {
					shard := primary
					if step[1:] == "follower" {
						shard = follower
					}
					if step[0] == '+' {
						h.fail(shard)
					} else {
						h.readopt(shard)
					}
				}

				before := h.rt.Stats().Total()
				if v, err := publishStamped(h.rt, name, &seq, 50); err != nil || v.Accepted != 50 {
					t.Fatalf("publish after the outage: %+v, %v", v, err)
				}
				flushWithin(t, h.rt, 15*time.Second)
				after := h.rt.Stats().Total()
				if got := after.Ingested - before.Ingested; got != 50 || after.Errors != before.Errors {
					t.Errorf("after the outage %d of 50 tuples were ingested and %d errored, want all ingested",
						got, after.Errors-before.Errors)
				}
				if d, ok := h.rt.Query(id); !ok || d.Shards()[0] != follower {
					t.Errorf("query serves from shard %v (ok=%v), want the follower %d", d.Shards(), ok, follower)
				}
				if tc.name == "primary-back" {
					if l := h.rt.ReplicaLag(name); len(l) != 1 || l[0].Shard != primary || l[0].Lag != 0 || l[0].Paused {
						t.Errorf("replicas: %+v, want the restarted shard %d as a caught-up follower", l, primary)
					}
				}
				checkInvariant(t, h.rt)
			})
		}
	}
}

// healthHarness is a two-shard replicated runtime whose shards fail
// and come back either through the operator calls (local) or as real
// dsmsd processes that are killed and restarted empty (remote).
type healthHarness struct {
	t       *testing.T
	rt      *runtime.Runtime
	srvs    []*dsmsd.Server // remote only
	addrs   []string
	applied []chan string // remote only: health events applied, per shard
}

func newHealthHarness(t *testing.T, kind string) *healthHarness {
	h := &healthHarness{t: t}
	if kind == "local" {
		h.rt = runtime.New("takeover", runtime.Options{Shards: 2, Replication: 2})
		return h
	}
	specs := make([]runtime.BackendSpec, 2)
	for i := range specs {
		srv, addr := startDSMSD(t, fmt.Sprintf("takeover%d", i), nil)
		events := make(chan string, 64)
		h.srvs, h.addrs, h.applied = append(h.srvs, srv), append(h.addrs, addr), append(h.applied, events)
		specs[i] = runtime.BackendSpec{Addr: addr, Remote: runtime.RemoteOptions{
			MaxReconnects:    2,
			ReconnectBackoff: time.Millisecond,
			HealthInterval:   3 * time.Millisecond,
			CallTimeout:      2 * time.Second,
			OnHealthEvent: func(event string, err error) {
				if event == "down" || event == "readopted" && err == nil {
					select {
					case events <- event:
					default:
					}
				}
			},
		}}
	}
	h.rt = runtime.New("takeover", runtime.Options{Replication: 2, Backends: specs})
	return h
}

// fail takes shard i down and returns once its down is applied.
func (h *healthHarness) fail(i int) {
	if h.srvs == nil {
		h.rt.FailShard(i, errors.New("injected shard death"))
		return
	}
	h.srvs[i].Close()
	h.srvs[i].Engine.Close()
	h.await(i, "down")
}

// readopt brings shard i back and returns once it is re-adopted.
func (h *healthHarness) readopt(i int) {
	if h.srvs == nil {
		if err := h.rt.ReadoptShard(i); err != nil {
			h.t.Fatalf("readopt shard %d: %v", i, err)
		}
		return
	}
	h.srvs[i] = restartDSMSD(h.t, h.addrs[i])
	h.await(i, "readopted")
}

func (h *healthHarness) await(i int, want string) {
	h.t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case got := <-h.applied[i]:
			if got == want {
				return
			}
		case <-deadline:
			h.t.Fatalf("shard %d: no %q applied", i, want)
		}
	}
}

func (h *healthHarness) close() {
	h.rt.Close()
	for _, srv := range h.srvs {
		srv.Close()
		srv.Engine.Close()
	}
}
