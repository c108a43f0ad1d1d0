package dsmsd

import (
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/stream"
)

// TestSubscriberDisconnectCleansUp: when a subscribed client drops its
// connection, the server must unsubscribe it from the engine so tuples
// stop being pushed into a dead socket.
func TestSubscriberDisconnectCleansUp(t *testing.T) {
	eng := dsms.NewEngine("cleanup")
	defer eng.Close()
	if err := eng.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	_, handle, err := ctl.DeployScript("CREATE INPUT STREAM s (a int, b double);\nCREATE OUTPUT STREAM output;\nSELECT * FROM s WHERE a >= 0 INTO output;")
	if err != nil {
		t.Fatal(err)
	}

	subCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	subCli.OnTuple = func(stream.Tuple) {}
	if err := subCli.Subscribe(handle); err != nil {
		t.Fatal(err)
	}
	// Drop the subscriber abruptly.
	_ = subCli.Close()

	// Keep ingesting; the push goroutine must notice the dead socket
	// and unsubscribe. The engine must stay healthy throughout.
	deadline := time.After(5 * time.Second)
	for {
		for i := 0; i < 50; i++ {
			if err := ctl.IngestBatchPrevalidated("s", []stream.Tuple{stream.NewTuple(stream.IntValue(int64(i)), stream.DoubleValue(0))}); err != nil {
				t.Fatalf("Ingest after subscriber death: %v", err)
			}
		}
		eng.Flush()
		// Success criterion: engine still answers and no goroutine
		// wedge; give the cleanup a few rounds.
		select {
		case <-deadline:
			t.Fatal("cleanup did not complete in time")
		default:
		}
		if _, err := ctl.StreamSchema("s"); err != nil {
			t.Fatalf("engine unhealthy: %v", err)
		}
		return
	}
}

// TestWithdrawWhileSubscribed: withdrawing a query closes remote
// subscriptions without wedging the server.
func TestWithdrawWhileSubscribed(t *testing.T) {
	eng := dsms.NewEngine("wd")
	defer eng.Close()
	if err := eng.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	qid, handle, err := ctl.DeployScript("CREATE INPUT STREAM s (a int, b double);\nCREATE OUTPUT STREAM output;\nSELECT * FROM s WHERE a >= 0 INTO output;")
	if err != nil {
		t.Fatal(err)
	}
	subCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()
	got := make(chan stream.Tuple, 16)
	subCli.OnTuple = func(tu stream.Tuple) { got <- tu }
	if err := subCli.Subscribe(handle); err != nil {
		t.Fatal(err)
	}
	if err := ctl.IngestBatchPrevalidated("s", []stream.Tuple{stream.NewTuple(stream.IntValue(1), stream.DoubleValue(0))}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("no tuple before withdraw")
	}
	if err := ctl.Withdraw(qid); err != nil {
		t.Fatalf("Withdraw: %v", err)
	}
	// Further ingests flow into the void; server must stay responsive.
	if err := ctl.IngestBatchPrevalidated("s", []stream.Tuple{stream.NewTuple(stream.IntValue(2), stream.DoubleValue(0))}); err != nil {
		t.Fatalf("Ingest after withdraw: %v", err)
	}
	if _, err := ctl.StreamSchema("s"); err != nil {
		t.Fatalf("server unhealthy after withdraw: %v", err)
	}
}

// TestServerCloseDisconnectsClients: closing the server fails
// in-flight and future client calls cleanly.
func TestServerCloseDisconnectsClients(t *testing.T) {
	eng := dsms.NewEngine("down")
	defer eng.Close()
	_ = eng.CreateStream("s", testSchema())
	srv := NewServer(eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.StreamSchema("s"); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := cli.StreamSchema("s"); err == nil {
		t.Error("calls must fail after server close")
	}
}

// TestWithdrawDoesNotWaitForStalledSubscriber: a subscriber to a staged
// query whose OnTuple never returns stops reading its connection, so
// the dsmsd's writer, then the lossless subscription, then the ingest
// connection stall behind it. Withdrawing the query on another
// connection must still return.
func TestWithdrawDoesNotWaitForStalledSubscriber(t *testing.T) {
	srv, cli := startServer(t)
	if err := cli.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	dep, err := Call(cli, Deploy, DeployReq{
		Script: "CREATE INPUT STREAM s (a int, b double); CREATE OUTPUT STREAM o; SELECT * FROM s WHERE a >= 0 INTO o;",
		Stage:  &dsms.StageSpec{Mode: dsms.StageRelay},
	})
	if err != nil {
		t.Fatal(err)
	}
	dial := func() *Client {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	subCli, cli2 := dial(), dial()
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	subCli.OnTuple = func(stream.Tuple) { <-release }
	if err := subCli.Subscribe(dep.Handle); err != nil {
		t.Fatal(err)
	}

	ingested := make(chan error)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		batch := make([]stream.Tuple, 64)
		for i := range batch {
			batch[i] = stream.NewTuple(stream.IntValue(int64(i)), stream.DoubleValue(0))
		}
		for {
			err := cli.IngestBatchPrevalidated("s", batch)
			select {
			case ingested <- err:
			case <-stop:
				return
			}
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for stalled := false; !stalled; {
		select {
		case err := <-ingested:
			if err != nil {
				t.Fatal(err)
			}
			if time.Now().After(deadline) {
				t.Fatal("ingest never stalled behind the subscriber")
			}
		case <-time.After(200 * time.Millisecond):
			stalled = true
		}
	}

	withdrawn := make(chan error, 1)
	go func() {
		_, err := Call(cli2, Withdraw, WithdrawReq{IDOrHandle: dep.QueryID})
		withdrawn <- err
	}()
	select {
	case err := <-withdrawn:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Withdraw waited for a subscriber that never reads")
	}
}
