package dsmsd

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/protocol"
	"repro/internal/stream"
)

func testSchema() *stream.Schema {
	return stream.MustSchema(
		stream.Field{Name: "a", Type: stream.TypeInt},
		stream.Field{Name: "b", Type: stream.TypeDouble},
	)
}

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	eng := dsms.NewEngine("remote")
	t.Cleanup(eng.Close)
	srv := NewServer(eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return srv, cli
}

func TestRemoteCreateAndSchema(t *testing.T) {
	_, cli := startServer(t)
	if err := cli.CreateStream("s", testSchema()); err != nil {
		t.Fatalf("CreateStream: %v", err)
	}
	got, err := cli.StreamSchema("s")
	if err != nil {
		t.Fatalf("StreamSchema: %v", err)
	}
	if !got.Equal(testSchema()) {
		t.Errorf("schema = %v", got)
	}
	if _, err := cli.StreamSchema("nosuch"); err == nil {
		t.Error("unknown stream must fail")
	}
	if err := cli.CreateStream("s", testSchema()); err == nil {
		t.Error("duplicate stream must fail")
	}
}

func TestRemoteDeployIngestSubscribe(t *testing.T) {
	srv, cli := startServer(t)
	if err := cli.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	script := `
CREATE INPUT STREAM s (a int, b double);
CREATE OUTPUT STREAM output;
SELECT * FROM s WHERE a > 5 INTO output;`
	qid, handle, err := cli.DeployScript(script)
	if err != nil {
		t.Fatalf("DeployScript: %v", err)
	}
	if !strings.HasPrefix(handle, "dsms://remote/") || qid == "" {
		t.Errorf("deploy = (%q,%q)", qid, handle)
	}

	// A second client subscribes and receives pushed tuples.
	subCli, err := Dial(srvAddr(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()
	var mu sync.Mutex
	var got []int64
	done := make(chan struct{}, 16)
	subCli.OnTuple = func(tu stream.Tuple) {
		mu.Lock()
		got = append(got, tu.Values[0].Int())
		mu.Unlock()
		done <- struct{}{}
	}
	if err := subCli.Subscribe(handle); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for i := int64(0); i < 10; i++ {
		if err := cli.IngestBatchPrevalidated("s", []stream.Tuple{stream.NewTuple(stream.IntValue(i), stream.DoubleValue(0))}); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	// 6,7,8,9 pass the filter.
	deadline := time.After(5 * time.Second)
	for n := 0; n < 4; n++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("timed out; got %v", got)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 4 || got[0] != 6 || got[3] != 9 {
		t.Errorf("received = %v", got)
	}
}

// srvAddr extracts the bound address from a running server by asking
// its protocol listener — stored when Listen was called in startServer.
func srvAddr(t *testing.T, s *Server) string {
	t.Helper()
	// The test helper keeps no address; re-listen is wrong. Instead we
	// stash it on first use.
	if s.boundAddr == "" {
		t.Fatal("server has no bound address")
	}
	return s.boundAddr
}

func TestRemoteWithdraw(t *testing.T) {
	_, cli := startServer(t)
	if err := cli.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	qid, _, err := cli.DeployScript("CREATE INPUT STREAM s (a int, b double);\nCREATE OUTPUT STREAM output;\nSELECT * FROM s WHERE a > 0 INTO output;")
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Withdraw(qid); err != nil {
		t.Fatalf("Withdraw: %v", err)
	}
	if err := cli.Withdraw(qid); err == nil {
		t.Error("double withdraw must fail")
	}
}

func TestRemoteDeployErrors(t *testing.T) {
	_, cli := startServer(t)
	if err := cli.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	// Bad script.
	if _, _, err := cli.DeployScript("SELECT"); err == nil {
		t.Error("bad script must fail")
	}
	// Script schema mismatch with registered stream.
	if _, _, err := cli.DeployScript("CREATE INPUT STREAM s (x string);\nCREATE OUTPUT STREAM output;\nSELECT * FROM s WHERE x = 'a' INTO output;"); err == nil {
		t.Error("schema mismatch must fail")
	}
	// Unknown stream.
	if _, _, err := cli.DeployScript("CREATE INPUT STREAM zz (a int);\nCREATE OUTPUT STREAM output;\nSELECT * FROM zz WHERE a > 0 INTO output;"); err == nil {
		t.Error("unknown stream must fail")
	}
	// Bad ingest.
	if err := cli.IngestBatchPrevalidated("nosuch", []stream.Tuple{stream.NewTuple()}); err == nil {
		t.Error("ingest to unknown stream must fail")
	}
	// Bad subscribe.
	if err := cli.Subscribe("bogus"); err == nil {
		t.Error("subscribe to unknown handle must fail")
	}
}

// TestErrorCodes pins the structured codes the server attaches:
// already_exists on stream collisions, not_found on unknown streams
// and queries — readable on the client through protocol.ErrorCode, with
// the error text unchanged.
func TestErrorCodes(t *testing.T) {
	_, cli := startServer(t)
	if err := cli.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	err := cli.CreateStream("s", testSchema())
	if err == nil || protocol.ErrorCode(err) != protocol.CodeAlreadyExists {
		t.Fatalf("duplicate create = %v (code %q), want code %q", err, protocol.ErrorCode(err), protocol.CodeAlreadyExists)
	}
	if _, err := cli.StreamSchema("ghost"); protocol.ErrorCode(err) != protocol.CodeNotFound {
		t.Fatalf("unknown schema lookup = %v (code %q), want %q", err, protocol.ErrorCode(err), protocol.CodeNotFound)
	}
	if _, err := Call(cli, DropStream, DropStreamReq{Name: "ghost"}); protocol.ErrorCode(err) != protocol.CodeNotFound {
		t.Fatalf("unknown drop = %v (code %q), want %q", err, protocol.ErrorCode(err), protocol.CodeNotFound)
	}
	if err := cli.Withdraw("q99999"); protocol.ErrorCode(err) != protocol.CodeNotFound {
		t.Fatalf("unknown withdraw = %v (code %q), want %q", err, protocol.ErrorCode(err), protocol.CodeNotFound)
	}
	// The code does not disturb errors.Is-style text handling elsewhere:
	// the message is exactly the engine's.
	var ce *protocol.CodedError
	if !errors.As(err, &ce) || ce.Error() == "" {
		t.Fatalf("coded error lost its message: %v", err)
	}
}

// TestUndecodablePayloadIsBadRequest sends a payload no request type
// decodes for every verb of the table: each gets bad_request, and the
// connection stays usable.
func TestUndecodablePayloadIsBadRequest(t *testing.T) {
	_, cli := startServer(t)
	for _, verb := range []string{
		CreateStream.Name, DropStream.Name, Schema.Name, Deploy.Name, Withdraw.Name, IngestBatch.Name,
		Flush.Name, ListParts.Name, Ping.Name, Replicate.Name, Migrate.Name, MsgSubscribe,
	} {
		if _, err := cli.rpc.Call(verb, "undecodable"); protocol.ErrorCode(err) != protocol.CodeBadRequest {
			t.Errorf("%s of an undecodable payload = %v (code %q), want %q", verb, err, protocol.ErrorCode(err), protocol.CodeBadRequest)
		}
		if _, err := cli.Ping(); err != nil {
			t.Fatalf("connection unusable after a bad %s: %v", verb, err)
		}
	}
}
