package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/dsms"
	"repro/internal/dsmsd"
	"repro/internal/governor"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

func durableSchema() *stream.Schema {
	return stream.MustSchema(
		stream.Field{Name: "a", Type: stream.TypeDouble},
		stream.Field{Name: "t", Type: stream.TypeTimestamp},
	)
}

const durableScript = `
CREATE INPUT STREAM s (a double, t timestamp);
CREATE WINDOW w (SIZE 4 ADVANCE 4 TUPLES);
CREATE OUTPUT STREAM out;
SELECT avg(a) AS avga FROM s[w] INTO out;
`

func publishVals(t *testing.T, f *Framework, vals ...float64) {
	t.Helper()
	for i, v := range vals {
		if err := f.Publish("s", stream.NewTuple(stream.DoubleValue(v), stream.TimestampMillis(int64(i)))); err != nil {
			t.Fatalf("publish %v: %v", v, err)
		}
	}
	f.Flush()
}

func collectEmissions(t *testing.T, c <-chan stream.Tuple, n int) []stream.Tuple {
	t.Helper()
	out := make([]stream.Tuple, 0, n)
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case tu, ok := <-c:
			if !ok {
				t.Fatalf("subscription closed after %d/%d emissions", len(out), n)
			}
			out = append(out, tu)
		case <-deadline:
			t.Fatalf("timeout waiting for emission %d/%d", len(out)+1, n)
		}
	}
	return out
}

// controlEmissions is what an uninterrupted framework emits for values
// 1..12: the windows after the first, [5..8] and [9..12], which are the
// ones a query checkpointed after 6 emits again after a reboot.
func controlEmissions(t *testing.T) []stream.Tuple {
	t.Helper()
	fw := NewWithOptions("control", Options{})
	defer fw.Close()
	if err := fw.RegisterStream("s", durableSchema()); err != nil {
		t.Fatal(err)
	}
	_, handle, err := fw.Runtime.DeployScript(durableScript)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := fw.Subscribe(handle)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	publishVals(t, fw, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	return collectEmissions(t, sub.C, 3)[1:]
}

// sameValuesAndSeqs asserts got equals want field for field and Seq for
// Seq: the restored lineage, not just the values.
func sameValuesAndSeqs(t *testing.T, what string, got, want []stream.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d emissions, want %d", what, len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if len(a.Values) != len(b.Values) {
			t.Fatalf("%s emission %d: %d fields vs %d", what, i, len(a.Values), len(b.Values))
		}
		for j := range a.Values {
			if a.Values[j] != b.Values[j] {
				t.Errorf("%s emission %d field %d: %v, control %v", what, i, j, a.Values[j], b.Values[j])
			}
		}
		if a.Seq != b.Seq {
			t.Errorf("%s emission %d: Seq %d, control Seq %d (provenance lineage broken)", what, i, a.Seq, b.Seq)
		}
	}
}

// startDSMSD serves a fresh engine over loopback until the test ends.
func startDSMSD(t *testing.T) *dsmsd.Server {
	t.Helper()
	srv := dsmsd.NewServer(dsms.NewEngine("dsmsd"), nil)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Engine.Close)
	t.Cleanup(srv.Close)
	return srv
}

// partOutput subscribes to part name on be and returns the part's
// output through a buffered channel that closes when the part ends;
// the subscription closes with the test.
func partOutput(t *testing.T, be runtime.ShardBackend, name string) (<-chan stream.Tuple, error) {
	var (
		mu    sync.Mutex
		ended bool
	)
	out := make(chan stream.Tuple, 1<<10)
	push := func(ts []stream.Tuple) {
		mu.Lock()
		defer mu.Unlock()
		for _, tu := range ts {
			if ended {
				return
			}
			select {
			case out <- tu:
			default: // dropped, as a full engine subscription drops
			}
		}
	}
	closeFn, err := be.Subscribe(name, push, func() {
		mu.Lock()
		defer mu.Unlock()
		if !ended {
			ended = true
			close(out)
		}
	})
	if err != nil {
		return nil, err
	}
	t.Cleanup(closeFn)
	return out, nil
}

// listParts names the parts a backend runs.
func listParts(t *testing.T, be runtime.ShardBackend) []string {
	t.Helper()
	names, err := be.ListParts()
	if err != nil {
		t.Fatalf("ListParts on %s: %v", be.Kind(), err)
	}
	return names
}

// remoteShard is exacmld's default shape: one remote shard at addr.
func remoteShard(addr string) Options {
	return Options{ShardAddrs: []runtime.BackendSpec{{Addr: addr, Remote: runtime.RemoteOptions{
		MaxReconnects: 2, ReconnectBackoff: 2 * time.Millisecond, HealthInterval: -1,
	}}}}
}

// TestBootRecoveryRoundTrip is the acceptance round-trip on every
// single-partition shape: a framework with a state dir is fed a
// prefix, checkpointed, then crashed (abandoned without Close) or
// closed, and re-booted; the restored query — resolved through its
// pre-crash handle — must then emit bit-identically to an uninterrupted
// control, including the window that straddles the reboot (its first
// half lives only in the checkpoint).
func TestBootRecoveryRoundTrip(t *testing.T) {
	want := controlEmissions(t)
	shapes := []struct {
		name string
		// boot returns the Options of the first boot and of the reboot,
		// called between the two.
		boot func(t *testing.T) (first Options, reboot func() Options)
	}{
		{"local", func(t *testing.T) (Options, func() Options) {
			return Options{}, func() Options { return Options{} }
		}},
		{"remote, dsmsd replaced", func(t *testing.T) (Options, func() Options) {
			old := startDSMSD(t)
			return remoteShard(old.Addr()), func() Options {
				// The whole host is lost: its dsmsd dies with the
				// exacmld, and the reboot fronts a fresh, empty one.
				old.Close()
				old.Engine.Close()
				return remoteShard(startDSMSD(t).Addr())
			}
		}},
		{"remote, dsmsd survives", func(t *testing.T) (Options, func() Options) {
			opts := remoteShard(startDSMSD(t).Addr())
			return opts, func() Options { return opts }
		}},
		{"replication 2 on two local shards", func(t *testing.T) (Options, func() Options) {
			opts := Options{Shards: 2, Replication: 2}
			return opts, func() Options { return opts }
		}},
	}
	for _, shape := range shapes {
		for _, crash := range []bool{true, false} {
			name := shape.name + "/close"
			if crash {
				name = shape.name + "/crash"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				first, reboot := shape.boot(t)
				first.StateDir = dir
				fwA, err := Boot("a", first)
				if err != nil {
					t.Fatal(err)
				}
				if err := fwA.RegisterStream("s", durableSchema()); err != nil {
					t.Fatal(err)
				}
				idA, handleA, err := fwA.Runtime.DeployScript(durableScript)
				if err != nil {
					t.Fatal(err)
				}
				// Prefix: one full window [1..4] plus a half-built window
				// [5,6] that only the checkpoint carries across the reboot.
				publishVals(t, fwA, 1, 2, 3, 4, 5, 6)
				if err := fwA.Durable.CheckpointNow(); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
				if crash {
					// Abandon fwA: no final checkpoint, no audit sync,
					// goroutines left running like a killed process's.
					t.Cleanup(fwA.Close)
				} else {
					fwA.Close()
				}

				opts := reboot()
				opts.StateDir = dir
				fwA2, err := Boot("a", opts)
				if err != nil {
					t.Fatalf("re-boot: %v", err)
				}
				t.Cleanup(fwA2.Close)
				if err := fwA2.Ready(); err != nil {
					t.Fatalf("Ready after recovery: %v", err)
				}
				st := fwA2.Durable.Stats()
				if st.StreamsRestored != 1 || st.QueriesRestored != 1 || st.CheckpointsRestored != 1 {
					t.Fatalf("recovery stats = %+v, want 1 stream, 1 query, 1 checkpoint part", st)
				}
				if _, ok := fwA2.Runtime.Query(idA); !ok {
					t.Fatalf("restored query not resolvable by original id %q", idA)
				}
				// One copy of the query per shard: a dsmsd that survived
				// the crash has its old part replaced, not run beside the
				// restored one.
				for i := 0; i < fwA2.Runtime.NumShards(); i++ {
					if names := listParts(t, fwA2.Runtime.Backend(i)); len(names) != 1 {
						t.Errorf("shard %d runs %v after the reboot, want exactly one part", i, names)
					}
				}
				subA, err := fwA2.Subscribe(handleA) // the PRE-crash handle
				if err != nil {
					t.Fatalf("subscribe by pre-crash handle %q: %v", handleA, err)
				}
				defer subA.Close()

				// Suffix: completes the straddling window [5,6,7,8] and one more.
				publishVals(t, fwA2, 7, 8, 9, 10, 11, 12)
				sameValuesAndSeqs(t, "recovered", collectEmissions(t, subA.C, len(want)), want)

				// Admission accounting survives the restart intact: every
				// offered tuple is either ingested, dropped or errored.
				for _, row := range fwA2.Stats().Streams {
					if row.Offered != row.Ingested+row.Dropped+row.Errors {
						t.Errorf("stream %s: offered %d != ingested %d + dropped %d + errors %d",
							row.Stream, row.Offered, row.Ingested, row.Dropped, row.Errors)
					}
				}
			})
		}
	}
}

// TestBootRestoresEngineHandleStateDir boots from a state dir written
// when a single-shard query's handle was its engine's
// ("dsms://a/streams/q00001", testdata/engine-handle-state: stream s,
// durableScript as rq00001 fed 1..6, closed cleanly). The query comes
// back under its recorded id and handle, and the handle subscribes to
// the restored lineage.
func TestBootRestoresEngineHandleStateDir(t *testing.T) {
	want := controlEmissions(t)
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/engine-handle-state")); err != nil {
		t.Fatal(err)
	}
	fw, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fw.Close)
	if st := fw.Durable.Stats(); st.QueriesRestored != 1 || st.CheckpointsRestored != 1 {
		t.Fatalf("recovery stats = %+v, want 1 query and its checkpoint", st)
	}
	const handle = "dsms://a/streams/q00001"
	if d, ok := fw.Runtime.Query("rq00001"); !ok || d.Handle != handle {
		t.Fatalf("restored query = %+v, %v; want rq00001 under %s", d, ok, handle)
	}
	sub, err := fw.Subscribe(handle)
	if err != nil {
		t.Fatalf("subscribe by the recorded handle: %v", err)
	}
	defer sub.Close()
	publishVals(t, fw, 7, 8, 9, 10, 11, 12)
	sameValuesAndSeqs(t, "restored", collectEmissions(t, sub.C, len(want)), want)
}

// TestBootDeletesOrphanParts: a dsmsd that outlived its exacmld still
// runs a part of the runtime's namespace that no restored query holds
// (a/rq00007/p0). Boot deletes it, with or without a state dir, and
// leaves parts outside the namespace alone.
func TestBootDeletesOrphanParts(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("state-dir=%v", durable), func(t *testing.T) {
			srv := startDSMSD(t)
			if err := srv.Engine.CreateStream("s", durableSchema()); err != nil {
				t.Fatal(err)
			}
			g := dsms.NewQueryGraph("s")
			for _, name := range []string{"a/rq00007/p0", "other/rq00001/p0", ""} {
				if _, err := srv.Engine.Put(name, g, nil); err != nil {
					t.Fatal(err)
				}
			}
			opts := remoteShard(srv.Addr())
			if durable {
				opts.StateDir = t.TempDir()
			}
			fw, err := Boot("a", opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fw.Close)
			if got := srv.Engine.Queries(); len(got) != 2 || got[0] != "other/rq00001/p0" || got[1] != "q00001" {
				t.Errorf("dsmsd runs %v after boot, want [other/rq00001/p0 q00001]", got)
			}
		})
	}
}

// TestBootRecoveryReplicatedFailover restores a query on a replicated
// stream and checks that the restore reached every replica: subscribed
// directly, the primary and the standby parts emit the same windows
// with the same Seqs, and when the primary's shard dies mid-window the
// promoted standby completes the next window for the subscriber.
func TestBootRecoveryReplicatedFailover(t *testing.T) {
	want := controlEmissions(t)
	dir := t.TempDir()
	opts := Options{Shards: 2, Replication: 2, StateDir: dir}
	fwA, err := Boot("a", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwA.Close)
	if err := fwA.RegisterStream("s", durableSchema()); err != nil {
		t.Fatal(err)
	}
	id, handle, err := fwA.Runtime.DeployScript(durableScript)
	if err != nil {
		t.Fatal(err)
	}
	publishVals(t, fwA, 1, 2, 3, 4, 5, 6)
	if err := fwA.Durable.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Crash: abandon fwA.

	fwA2, err := Boot("a", opts)
	if err != nil {
		t.Fatalf("re-boot: %v", err)
	}
	t.Cleanup(fwA2.Close)
	rt := fwA2.Runtime
	d, ok := rt.Query(id)
	if !ok {
		t.Fatalf("restored query %q missing", id)
	}
	primary := d.Shards()[0]
	// Each backend is a fresh engine running exactly this query's one
	// part, so the standby's part id on the other shard is the primary's.
	var parts []<-chan stream.Tuple
	for i := 0; i < rt.NumShards(); i++ {
		if n := len(listParts(t, rt.Backend(i))); n != 1 {
			t.Fatalf("shard %d runs %d parts, want 1", i, n)
		}
		out, err := partOutput(t, rt.Backend(i), d.Parts[0].ID)
		if err != nil {
			t.Fatalf("subscribe shard %d part: %v", i, err)
		}
		parts = append(parts, out)
	}
	sub, err := fwA2.Subscribe(handle)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	publishVals(t, fwA2, 7, 8)
	for i, c := range parts {
		sameValuesAndSeqs(t, fmt.Sprintf("shard %d part", i), collectEmissions(t, c, 1), want[:1])
	}
	rt.FailShard(primary, errors.New("injected primary death"))
	publishVals(t, fwA2, 9, 10, 11, 12)
	sameValuesAndSeqs(t, "failed-over subscriber", collectEmissions(t, sub.C, len(want)), want)
}

// TestBootRecoveryMisfitCheckpoint restores a query from a well-formed
// checkpoint that does not fit it — a part past the query's partitions,
// or a state exported from a different script: the query comes back
// with empty windows, and the checkpoint counts as discarded, not the
// query as failed.
func TestBootRecoveryMisfitCheckpoint(t *testing.T) {
	// checkpointOf boots a framework on a fresh state dir, deploys
	// script over stream s (partitioned over two shards when
	// partitioned), feeds 1..6 and checkpoints; it returns the dir.
	checkpointOf := func(t *testing.T, script string, partitioned bool) string {
		t.Helper()
		dir := t.TempDir()
		opts := Options{StateDir: dir}
		if partitioned {
			opts.Shards = 2
		}
		fw, err := Boot("src", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer fw.Close()
		if partitioned {
			err = fw.RegisterPartitionedStream("s", durableSchema(), "a")
		} else {
			err = fw.RegisterStream("s", durableSchema())
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fw.Runtime.DeployScript(script); err != nil {
			t.Fatal(err)
		}
		publishVals(t, fw, 1, 2, 3, 4, 5, 6)
		if err := fw.Durable.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	const twoAggs = `
CREATE INPUT STREAM s (a double, t timestamp);
CREATE WINDOW w (SIZE 3 ADVANCE 3 TUPLES);
CREATE OUTPUT STREAM out;
SELECT max(a) AS maxa, min(a) AS mina, count(a) AS n FROM s[w] INTO out;
`
	const filterScript = `
CREATE INPUT STREAM s (a double, t timestamp);
CREATE OUTPUT STREAM out;
SELECT a FROM s WHERE a > 0 INTO out;
`
	rows := []struct {
		name string
		src  func(t *testing.T) string
	}{
		{"part past the partitions", func(t *testing.T) string { return checkpointOf(t, filterScript, true) }},
		{"state of another script", func(t *testing.T) string { return checkpointOf(t, twoAggs, false) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			src := row.src(t)
			dir := t.TempDir()
			fwA, err := Boot("a", Options{StateDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := fwA.RegisterStream("s", durableSchema()); err != nil {
				t.Fatal(err)
			}
			id, _, err := fwA.Runtime.DeployScript(durableScript)
			if err != nil {
				t.Fatal(err)
			}
			fwA.Close()
			// Swap in the foreign checkpoint: same query id, intact
			// envelope, state that does not fit.
			ckDir := filepath.Join(dir, "checkpoints")
			own, _ := filepath.Glob(filepath.Join(ckDir, id+"-*.json"))
			for _, f := range own {
				if err := os.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
			foreign, err := filepath.Glob(filepath.Join(src, "checkpoints", id+"-*.json"))
			if err != nil || len(foreign) == 0 {
				t.Fatalf("no source checkpoint for %s: %v", id, err)
			}
			for _, f := range foreign {
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(ckDir, filepath.Base(f)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			fwA2, err := Boot("a", Options{StateDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fwA2.Close)
			st := fwA2.Durable.Stats()
			if st.QueriesRestored != 1 || st.QueriesFailed != 0 || st.CheckpointsRestored != 0 || st.CheckpointsDiscarded == 0 {
				t.Fatalf("recovery stats = %+v, want the query restored empty and its checkpoint discarded", st)
			}
			sub, err := fwA2.Subscribe(id)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			publishVals(t, fwA2, 7, 8, 9, 10)
			if avg := collectEmissions(t, sub.C, 1)[0].Values[0].Double(); avg != 8.5 {
				t.Errorf("first window after an empty restore = %v, want 8.5 (avg of 7..10)", avg)
			}
		})
	}
}

// TestCheckpointSkipCounted pins that a checkpoint pass skipping a
// query it cannot checkpoint (a staged global aggregate) says so on
// /metrics, once per query per pass.
func TestCheckpointSkipCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	fw, err := Boot("a", Options{Shards: 2, StateDir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if err := fw.RegisterPartitionedStream("s", durableSchema(), "a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fw.Runtime.DeployScript(durableScript); err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		if err := fw.Durable.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("exacml_checkpoint_skipped_total %d\n", pass); !strings.Contains(buf.String(), want) {
			t.Fatalf("after pass %d, /metrics lacks %q", pass, strings.TrimSpace(want))
		}
	}
}

// TestBootRecoveryTornAuditTail kills the audit file mid-record: the
// torn line is discarded, the chain is rewritten to the verified
// prefix, and the recovered log keeps appending on an intact chain —
// with the recovery itself recorded as a "recover" event.
func TestBootRecoveryTornAuditTail(t *testing.T) {
	dir := t.TempDir()
	fwA, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := fwA.Audit.Append(audit.Event{Kind: "access", Subject: "alice", Resource: "s", Decision: "Permit"}); err != nil {
			t.Fatal(err)
		}
	}
	fwA.Close()

	// Tear the tail: a record cut off mid-write.
	path := filepath.Join(dir, "audit.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"time":123,"ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fwA2, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwA2.Close)
	st := fwA2.Durable.Stats()
	// First boot chained 1 "recover" event + 3 appended = 4 good lines.
	if st.AuditReplayed != 4 || st.AuditDiscarded != 1 {
		t.Fatalf("replayed %d discarded %d, want 4 replayed, 1 discarded", st.AuditReplayed, st.AuditDiscarded)
	}
	if i := fwA2.Audit.Verify(); i != -1 {
		t.Fatalf("recovered chain corrupt at %d", i)
	}
	if got := fwA2.Audit.KindCounts()["recover"]; got != 2 {
		t.Fatalf("recover events on chain = %d, want 2 (one per boot)", got)
	}
	// The file itself was repaired: a fresh verification pass over disk
	// finds no discardable lines.
	if _, disc, err := audit.LoadFile(path); err != nil || disc != 0 {
		t.Fatalf("re-read repaired file: discarded %d, err %v", disc, err)
	}
}

// TestBootRecoveryCorruptCatalog corrupts the NEWEST catalog snapshot:
// recovery must fall back to the previous good generation rather than
// trusting (or dying on) the torn file.
func TestBootRecoveryCorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	fwA, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := fwA.RegisterStream("s", durableSchema()); err != nil { // catalog gen 1
		t.Fatal(err)
	}
	if _, _, err := fwA.Runtime.DeployScript(durableScript); err != nil { // catalog gen 2
		t.Fatal(err)
	}
	fwA.Close()

	gens, err := filepath.Glob(filepath.Join(dir, "catalog-*.json"))
	if err != nil || len(gens) < 2 {
		t.Fatalf("want >= 2 catalog generations, got %v (%v)", gens, err)
	}
	sort.Strings(gens)
	newest := gens[len(gens)-1]
	if err := os.WriteFile(newest, []byte("torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}

	fwA2, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwA2.Close)
	st := fwA2.Durable.Stats()
	if st.CatalogDiscarded != 1 {
		t.Fatalf("catalog discarded = %d, want 1", st.CatalogDiscarded)
	}
	// Generation 1 predates the deploy: the stream is back, the query is
	// not — the corrupted generation was recovered past, never trusted.
	if st.StreamsRestored != 1 || st.QueriesRestored != 0 {
		t.Fatalf("restored %d streams / %d queries, want 1 / 0 (previous generation)", st.StreamsRestored, st.QueriesRestored)
	}
	if _, err := fwA2.Runtime.StreamSchema("s"); err != nil {
		t.Fatalf("stream not restored from fallback generation: %v", err)
	}
}

// TestBootRecoveryCorruptCheckpoint corrupts the newest window
// checkpoint: recovery falls back to the previous generation, proven
// by the straddling window completing with the OLDER generation's
// half-built state.
func TestBootRecoveryCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fwA, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := fwA.RegisterStream("s", durableSchema()); err != nil {
		t.Fatal(err)
	}
	id, _, err := fwA.Runtime.DeployScript(durableScript)
	if err != nil {
		t.Fatal(err)
	}
	publishVals(t, fwA, 1, 2, 3, 4, 5, 6) // pending window [5,6]
	if err := fwA.Durable.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	publishVals(t, fwA, 7, 8, 9, 10) // pending window [9,10]
	if err := fwA.Durable.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	cks, err := filepath.Glob(filepath.Join(dir, "checkpoints", id+"-*.json"))
	if err != nil || len(cks) < 2 {
		t.Fatalf("want >= 2 checkpoint generations, got %v (%v)", cks, err)
	}
	sort.Strings(cks)
	if err := os.WriteFile(cks[len(cks)-1], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash without Close.

	fwA2, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwA2.Close)
	st := fwA2.Durable.Stats()
	if st.CheckpointsDiscarded < 1 || st.CheckpointsRestored != 1 {
		t.Fatalf("checkpoints restored %d / discarded %d, want 1 restored from the previous generation", st.CheckpointsRestored, st.CheckpointsDiscarded)
	}
	sub, err := fwA2.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	publishVals(t, fwA2, 7, 8)
	got := collectEmissions(t, sub.C, 1)
	if avg := got[0].Values[0].Double(); avg != 6.5 {
		t.Errorf("first post-recovery window avg = %v, want 6.5 (pending [5,6] from the FALLBACK checkpoint + 7,8)", avg)
	}
}

// TestGovernorDemotionSurvivesRestart drives a subject over the
// demotion threshold, crashes the node, and verifies the audit-chain
// replay re-applies the demotion on boot — while a later boot WITHOUT
// a governor shows the durable catalog kept the un-demoted base
// configuration.
func TestGovernorDemotionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	gcfg := &governor.Config{
		Threshold:    2,
		HalfLife:     time.Hour, // no decay inside the test
		Cooldown:     time.Hour, // no restore inside the test
		TickInterval: -1,        // no background pass
		Bindings:     map[string][]string{"mallory": {"s"}},
	}
	fwA, err := Boot("a", Options{StateDir: dir, Governor: gcfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := fwA.RegisterStream("s", durableSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := fwA.Audit.Append(audit.Event{Kind: "access", Subject: "mallory", Resource: "s", Decision: "Deny"}); err != nil {
			t.Fatal(err)
		}
	}
	cfg, err := fwA.StreamAdmission("s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Class != runtime.BestEffort || cfg.Rate != 100 {
		t.Fatalf("live demotion not applied: %+v", cfg)
	}
	// Crash without Close: the demotion exists only on the audit chain.

	fwA2, err := Boot("a", Options{StateDir: dir, Governor: gcfg})
	if err != nil {
		t.Fatal(err)
	}
	st := fwA2.Durable.Stats()
	if st.Governor.Redemoted != 1 {
		t.Fatalf("governor replay = %+v, want 1 re-applied demotion", st.Governor)
	}
	cfg, err = fwA2.StreamAdmission("s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Class != runtime.BestEffort || cfg.Rate != 100 {
		t.Fatalf("demotion did not survive the restart: %+v", cfg)
	}
	// The re-applied demotion is itself on the chain.
	found := false
	for _, e := range fwA2.Audit.Events() {
		if e.Kind == governor.KindGovern && strings.Contains(e.Detail, "re-applied after restart") {
			found = true
		}
	}
	if !found {
		t.Error("no recovered-demotion govern event on the chain")
	}
	fwA2.Close()

	// Without a governor, the same state dir boots with the BASE config:
	// the demotion was never baked into the durable catalog.
	fwA3, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwA3.Close)
	cfg, err = fwA3.StreamAdmission("s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Class != runtime.Normal || cfg.Rate != 0 {
		t.Fatalf("catalog persisted the demotion (got %+v), want the base config back", cfg)
	}
}
