package dsmsd

import (
	"testing"

	"repro/internal/stream"
)

// TestRemoteEngineOps covers the wire operations the sharded runtime's
// RemoteBackend depends on: ping, named put, batch ingest, flush, part
// listing and stream drop.
func TestRemoteEngineOps(t *testing.T) {
	srv, cli := startServer(t)

	if _, err := cli.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := cli.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}

	resp, err := Call(cli, Deploy, DeployReq{Name: "part", Script: "CREATE INPUT STREAM s (a int, b double); CREATE OUTPUT STREAM o; SELECT * FROM s WHERE a > 1 INTO o;"})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if resp.QueryID != "part" || resp.Handle == "" {
		t.Fatalf("deploy = %+v", resp)
	}
	if resp.OutputSchema == nil || !resp.OutputSchema.Equal(testSchema()) {
		t.Errorf("output schema = %v, want input schema of a filter", resp.OutputSchema)
	}

	resp2, err := Call(cli, ListParts, struct{}{})
	names := resp2.Names
	if err != nil || len(names) != 1 {
		t.Fatalf("ListParts = %v, %v; want 1 part", names, err)
	}

	sub, err := srv.Engine.Subscribe(resp.QueryID)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Engine.Unsubscribe(resp.QueryID, sub)
	batch := []stream.Tuple{
		stream.NewTuple(stream.IntValue(1), stream.DoubleValue(0.5)),
		stream.NewTuple(stream.IntValue(2), stream.DoubleValue(1.5)),
	}
	if err := cli.IngestBatchPrevalidated("s", batch); err != nil {
		t.Fatalf("IngestBatchPrevalidated: %v", err)
	}
	if err := cli.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// After a flush, the a > 1 filter output is already buffered.
	select {
	case got := <-sub.C:
		if got.Values[0].Int() != 2 {
			t.Errorf("filtered tuple = %v, want a == 2", got)
		}
	default:
		t.Error("batch never reached the filter query")
	}

	if _, err := Call(cli, DropStream, DropStreamReq{Name: "s"}); err != nil {
		t.Fatalf("DropStream: %v", err)
	}
	if _, err := cli.StreamSchema("s"); err == nil {
		t.Error("schema lookup after drop must fail")
	}
	if resp, err := Call(cli, ListParts, struct{}{}); err != nil || len(resp.Names) != 0 {
		t.Errorf("ListParts after drop = %v, %v; want none (queries withdrawn with the stream)", resp.Names, err)
	}
	if _, err := Call(cli, DropStream, DropStreamReq{Name: "s"}); err == nil {
		t.Error("dropping an unknown stream must fail")
	}
}
