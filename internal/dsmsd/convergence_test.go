package dsmsd_test

import (
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/dsmsd"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/stream"
)

func convSchema() *stream.Schema {
	return stream.MustSchema(
		stream.Field{Name: "a", Type: stream.TypeInt},
		stream.Field{Name: "b", Type: stream.TypeDouble},
	)
}

func convBatch(n int) []stream.Tuple {
	out := make([]stream.Tuple, n)
	for i := range out {
		out[i] = stream.NewTuple(stream.IntValue(int64(i)), stream.DoubleValue(float64(i)))
	}
	return out
}

// remoteShardRuntime is the paper's shape: a stock dsmsd (started the
// way cmd/dsmsd starts it) behind a runtime with one remote shard.
func remoteShardRuntime(t *testing.T) (*dsms.Engine, string, *runtime.Runtime) {
	t.Helper()
	eng := dsms.NewEngine("remote")
	t.Cleanup(eng.Close)
	srv := dsmsd.NewServer(eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	rt := runtime.New("conv", runtime.Options{
		Backends: []runtime.BackendSpec{{Addr: addr, Remote: runtime.RemoteOptions{
			HealthInterval: -1, CallTimeout: 5 * time.Second,
		}}},
	})
	t.Cleanup(rt.Close)
	return eng, addr, rt
}

// streamRow returns a stream's Stats row after asserting the accounting
// invariant on it.
func streamRow(t *testing.T, rt *runtime.Runtime, name string) metrics.StreamStat {
	t.Helper()
	for _, row := range rt.Stats().Streams {
		if row.Stream != name {
			continue
		}
		if row.Offered != row.Ingested+row.Dropped+row.Errors {
			t.Fatalf("invariant: %+v", row)
		}
		return row
	}
	t.Fatalf("no stats row for stream %q", name)
	return metrics.StreamStat{}
}

// TestRemoteShardReconfigureConverges: on a runtime whose only shard is
// a live dsmsd, Runtime.Reconfigure is the whole demotion. The front
// meters the runtime's traffic once, to the demoted quota, and every
// tuple it accepts lands in the dsmsd's engine.
func TestRemoteShardReconfigureConverges(t *testing.T) {
	eng, _, rt := remoteShardRuntime(t)
	if err := rt.CreateStream("s", convSchema(),
		runtime.WithClass(runtime.Critical), runtime.WithQuota(500, 50)); err != nil {
		t.Fatal(err)
	}

	old, err := rt.Reconfigure("s", runtime.StreamConfig{Class: runtime.BestEffort, Rate: 25, Burst: 10})
	if err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if old.Class != runtime.Critical || old.Rate != 500 {
		t.Fatalf("previous config = %+v", old)
	}
	if cfg, err := rt.StreamAdmission("s"); err != nil || cfg.Class != runtime.BestEffort || cfg.Rate != 25 || cfg.Burst != 10 {
		t.Fatalf("admission after demotion = %+v, %v; want besteffort 25/s:10", cfg, err)
	}

	rv, err := rt.PublishBatchVerdict("s", convBatch(30))
	if err != nil {
		t.Fatalf("runtime publish: %v", err)
	}
	if rv.Shed == 0 || rv.Accepted > 12 {
		t.Fatalf("front verdict = %+v, want ~10 of 30 admitted under the demoted quota", rv)
	}
	rt.Flush()
	row := streamRow(t, rt, "s")
	if row.Errors != 0 || row.Ingested != uint64(rv.Accepted) || row.Reconfigured != 1 {
		t.Fatalf("stream row = %+v, want %d ingested, no errors, one reconfigure", row, rv.Accepted)
	}
	if seq, err := eng.StreamSeq("s"); err != nil || seq != row.Ingested {
		t.Fatalf("dsmsd sealed %d tuples (%v), runtime ingested %d: accepted tuples must all land", seq, err, row.Ingested)
	}

	if _, err := rt.Reconfigure("ghost", runtime.StreamConfig{}); err == nil {
		t.Fatal("reconfigure of unknown stream must fail")
	}
}

// TestRemoteShardNoSilentShed: a direct publisher that drains a quota's
// worth of tuples into the dsmsd must not cost the runtime's own
// traffic anything. The runtime is the only admission point, so every
// tuple it reports ingested is in the dsmsd's engine, and the
// accounting invariant holds with nothing hidden.
func TestRemoteShardNoSilentShed(t *testing.T) {
	eng, addr, rt := remoteShardRuntime(t)
	if err := rt.CreateStream("s", convSchema(), runtime.WithQuota(1, 10)); err != nil {
		t.Fatal(err)
	}
	direct, err := dsmsd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = direct.Close() })
	if err := direct.IngestBatchPrevalidated("s", convBatch(10)); err != nil {
		t.Fatalf("direct batch: %v", err)
	}

	rv, err := rt.PublishBatchVerdict("s", convBatch(10))
	if err != nil {
		t.Fatalf("runtime publish: %v", err)
	}
	rt.Flush()
	row := streamRow(t, rt, "s")
	if row.Ingested != uint64(rv.Accepted) || rv.Accepted == 0 {
		t.Fatalf("stream row = %+v, verdict %+v", row, rv)
	}
	seq, err := eng.StreamSeq("s")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 10+row.Ingested {
		t.Fatalf("dsmsd sealed %d tuples, want 10 direct + %d runtime-ingested: the dsmsd shed admitted tuples silently", seq, row.Ingested)
	}
}

// TestRemoteAdoptionUsesTypedCode guards the PR-3 leftover: stream
// adoption on a dsmsd that already holds the stream is recognized by
// the structured already_exists code, not error-text matching — an
// equal schema is adopted, a different one refused.
func TestRemoteAdoptionUsesTypedCode(t *testing.T) {
	eng := dsms.NewEngine("remote")
	t.Cleanup(eng.Close)
	if err := eng.CreateStream("kept", convSchema()); err != nil {
		t.Fatal(err)
	}
	other := stream.MustSchema(stream.Field{Name: "z", Type: stream.TypeString})
	if err := eng.CreateStream("clash", other); err != nil {
		t.Fatal(err)
	}
	srv := dsmsd.NewServer(eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	be := runtime.NewRemoteBackend(addr, runtime.RemoteOptions{HealthInterval: -1})
	t.Cleanup(func() { _ = be.Close() })
	if err := be.CreateStream("kept", convSchema()); err != nil {
		t.Fatalf("equal-schema adoption failed: %v", err)
	}
	if err := be.CreateStream("clash", convSchema()); err == nil {
		t.Fatal("adoption with a different schema must fail")
	}
}
