package experiments

import (
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/dsmsd"
	"repro/internal/stream"
	"repro/internal/streamql"
)

// TestLiveStreamEndToEnd exercises the complete distributed data path:
// a client obtains a handle through proxy → data server → PEP → engine,
// then a second connection subscribes to that handle on the engine and
// receives tuples that respect the merged policy+user query, while a
// feeder publishes through a third connection.
func TestLiveStreamEndToEnd(t *testing.T) {
	env, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if _, err := env.LoadPolicies(); err != nil {
		t.Fatal(err)
	}
	item := env.Workload.Items[0]
	resp, err := env.ExacmlClient.RequestAccessXML(item.RequestXML, item.UserQueryXML)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Granted() {
		t.Fatalf("not granted: %+v", resp)
	}

	// Subscribe over the wire to the issued handle.
	subCli, err := dsmsd.Dial(env.dsmsServer.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()
	got := make(chan stream.Tuple, 4096)
	subCli.OnTuple = func(tu stream.Tuple) { got <- tu }
	if err := subCli.Subscribe(resp.Handle); err != nil {
		t.Fatalf("Subscribe(%s): %v", resp.Handle, err)
	}

	// Feed the stream through the direct client connection.
	for _, tu := range makeWeatherTuples(400) {
		if err := env.DirectClient.IngestBatchPrevalidated(item.Resource, []stream.Tuple{tu}); err != nil {
			t.Fatal(err)
		}
	}

	// Oracle: compile the very script the PEP deployed and run it
	// offline over the same input.
	compiled, err := streamql.CompileString(resp.Script)
	if err != nil {
		t.Fatalf("compile deployed script: %v", err)
	}
	expected, _, err := dsms.RunGraphOnSlice(compiled.Graph, env.Workload.Schema, makeWeatherTuples(400))
	if err != nil {
		t.Fatal(err)
	}
	want := len(expected)
	if want == 0 {
		t.Skipf("item 0 produces no output on this workload seed")
	}
	received := 0
	timeout := time.After(10 * time.Second)
	for received < want {
		select {
		case <-got:
			received++
		case <-timeout:
			t.Fatalf("received %d of %d tuples", received, want)
		}
	}
}
