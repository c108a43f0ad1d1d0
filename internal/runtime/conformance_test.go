package runtime_test

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dsms"
	"repro/internal/dsmsd"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/stream"
)

// conformant is one ShardBackend flavour under the conformance table:
// the backend, the engine that ends up holding its state (read directly
// to check what really landed), and how the flavour reports an unknown
// stream or query.
type conformant struct {
	be       runtime.ShardBackend
	eng      *dsms.Engine
	notFound func(error) bool
}

// opener builds a fresh backend of one flavour.
type opener func(t *testing.T, name string) conformant

func openLocal(t *testing.T, name string) conformant {
	t.Helper()
	eng := dsms.NewEngine(name)
	t.Cleanup(eng.Close)
	return conformant{
		be:  runtime.NewLocalBackend(eng),
		eng: eng,
		notFound: func(err error) bool {
			return errors.Is(err, dsms.ErrUnknownStream) || errors.Is(err, dsms.ErrUnknownQuery)
		},
	}
}

func openRemote(t *testing.T, name string) conformant {
	t.Helper()
	srv, addr := startDSMSD(t, name, nil)
	t.Cleanup(srv.Engine.Close)
	t.Cleanup(srv.Close)
	be := runtime.NewRemoteBackend(addr, runtime.RemoteOptions{HealthInterval: -1, CallTimeout: 5 * time.Second})
	t.Cleanup(func() { _ = be.Close() })
	return conformant{
		be:       be,
		eng:      srv.Engine,
		notFound: func(err error) bool { return protocol.ErrorCode(err) == protocol.CodeNotFound },
	}
}

// tuples mints n tuples with fixed arrival times, so two engines fed
// the same run seal identical tuples.
func tuples(from, n int) []stream.Tuple {
	out := make([]stream.Tuple, n)
	for i := range out {
		tu := mkTuple(float64(from+i), int64(1000+from+i))
		tu.ArrivalMillis = int64(5000 + from + i)
		out[i] = tu
	}
	return out
}

func (c conformant) seq(t *testing.T, name string) uint64 {
	t.Helper()
	seq, err := c.eng.StreamSeq(name)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// conformLog is the log id the rows replicate under, unless a row
// switches logs.
const conformLog = 7

func (c conformant) replicate(t *testing.T, base uint64, reset bool, ts []stream.Tuple, want uint64) {
	t.Helper()
	c.replicateIn(t, conformLog, base, reset, ts, want)
}

func (c conformant) replicateIn(t *testing.T, log, base uint64, reset bool, ts []stream.Tuple, want uint64) {
	t.Helper()
	if acked, err := c.be.Replicate("s", log, base, reset, ts); err != nil || acked != want {
		t.Fatalf("Replicate(log %d, base %d, reset %v, %d tuples) = %d, %v; want %d", log, base, reset, len(ts), acked, err, want)
	}
}

const conformScript = "CREATE INPUT STREAM s (a double, t timestamp); CREATE OUTPUT STREAM o; " +
	"CREATE WINDOW w (SIZE 4 ADVANCE 4 TUPLES); SELECT sum(a) AS total FROM s[w] INTO o;"

// TestShardBackendConformance runs one table of ShardBackend behaviours
// against LocalBackend and against RemoteBackend over a dsmsd. The two
// are one protocol: a row that passes on one flavour and fails on the
// other is a bug in one of them.
func TestShardBackendConformance(t *testing.T) {
	flavours := []struct {
		name        string
		open, other opener
	}{
		{"local", openLocal, openRemote},
		{"remote", openRemote, openLocal},
	}
	rows := []struct {
		name string
		run  func(t *testing.T, c conformant, other opener)
	}{
		{"replicate dedups a retried run", func(t *testing.T, c conformant, _ opener) {
			c.replicate(t, 0, false, tuples(0, 10), 10)
			c.replicate(t, 0, false, tuples(0, 10), 10)
			c.replicate(t, 5, false, tuples(5, 10), 15)
			if got := c.seq(t, "s"); got != 15 {
				t.Fatalf("engine sealed %d tuples, want 15 (a retried prefix was ingested twice)", got)
			}
		}},
		{"base ahead of applied is a replica gap", func(t *testing.T, c conformant, _ opener) {
			// A refused base-ahead run ingests nothing and replies with
			// the unchanged position.
			c.replicate(t, 0, false, tuples(0, 5), 5)
			c.replicate(t, 20, false, tuples(20, 5), 5)
			c.replicate(t, 0, false, nil, 5)
			if got := c.seq(t, "s"); got != 5 {
				t.Fatalf("engine sealed %d tuples after a refused gap, want 5", got)
			}
		}},
		{"a new log starts the stream at position 0", func(t *testing.T, c conformant, _ opener) {
			c.replicate(t, 0, false, tuples(0, 10), 10)
			c.replicateIn(t, conformLog+1, 0, false, tuples(10, 5), 5)
			// A reset under yet another log declares no gap: the
			// stream reported no position in it.
			c.replicateIn(t, conformLog+2, 30, true, tuples(30, 5), 0)
			if got := c.seq(t, "s"); got != 15 {
				t.Fatalf("engine sealed %d tuples, want 15 (the new log's head was taken for the old log's positions)", got)
			}
		}},
		{"reset jumps forward and never back", func(t *testing.T, c conformant, _ opener) {
			c.replicate(t, 0, false, tuples(0, 10), 10)
			c.replicate(t, 30, true, tuples(30, 5), 35)
			c.replicate(t, 20, true, tuples(20, 5), 35)
			if got := c.seq(t, "s"); got != 15 {
				t.Fatalf("engine sealed %d tuples, want 15 (a backward reset re-applied tuples)", got)
			}
		}},
		{"drop and recreate clears the position", func(t *testing.T, c conformant, _ opener) {
			c.replicate(t, 0, false, tuples(0, 20), 20)
			if err := c.be.DropStream("s"); err != nil {
				t.Fatal(err)
			}
			if err := c.be.CreateStream("s", testSchema()); err != nil {
				t.Fatal(err)
			}
			c.replicate(t, 0, false, nil, 0)
			c.replicate(t, 0, false, tuples(0, 5), 5)
			if got := c.seq(t, "s"); got != 5 {
				t.Fatalf("re-created stream sealed %d tuples, want 5 (its first tuples were skipped as already applied)", got)
			}
		}},
		{"migrated state emits what an unmigrated query does", func(t *testing.T, src conformant, other opener) {
			dst := other(t, "conform-dst")
			if err := dst.be.CreateStream("s", testSchema()); err != nil {
				t.Fatal(err)
			}
			importRun(t, src, dst, true)
		}},
		{"import with no part to replace continues the exported lineage", func(t *testing.T, dst conformant, other opener) {
			src := other(t, "conform-src")
			if err := src.be.CreateStream("s", testSchema()); err != nil {
				t.Fatal(err)
			}
			importRun(t, src, dst, false)
		}},
		{"putting one name twice leaves one part with the second put's state", func(t *testing.T, c conformant, _ opener) {
			req := runtime.DeployRequest{Script: conformScript}
			if _, err := c.be.PutPart("src", req, nil); err != nil {
				t.Fatal(err)
			}
			if err := c.be.IngestBatch("s", tuples(0, 6), nil); err != nil {
				t.Fatal(err)
			}
			first := exportOps(t, c, "src")
			if err := c.be.IngestBatch("s", tuples(6, 1), nil); err != nil {
				t.Fatal(err)
			}
			second := exportOps(t, c, "src")
			for _, st := range []*dsms.QueryState{second, first} {
				if _, err := c.be.PutPart("p", req, st); err != nil {
					t.Fatal(err)
				}
			}
			if names, err := c.be.ListParts(); err != nil || len(names) != 2 || names[0] != "p" || names[1] != "src" {
				t.Fatalf("ListParts = %v, %v; want [p src]", names, err)
			}
			got := exportOps(t, c, "p")
			if want := first.Ops[0].Aggregate.Seq; fmt.Sprint(got.Ops[0].Aggregate.Seq) != fmt.Sprint(want) {
				t.Fatalf("part p holds window %v, want the second put's %v", got.Ops[0].Aggregate.Seq, want)
			}
		}},
		{"deleting an unknown part is not_found", func(t *testing.T, c conformant, _ opener) {
			if _, err := c.be.PutPart("p", runtime.DeployRequest{Script: conformScript}, nil); err != nil {
				t.Fatal(err)
			}
			if err := c.be.DeletePart("p"); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"p", "ghost"} {
				if err := c.be.DeletePart(name); !c.notFound(err) {
					t.Errorf("DeletePart(%q) = %v, want not_found", name, err)
				}
			}
		}},
		{"dropping a stream deletes its parts", func(t *testing.T, c conformant, _ opener) {
			for _, name := range []string{"a", "b"} {
				if _, err := c.be.PutPart(name, runtime.DeployRequest{Script: conformScript}, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.be.DropStream("s"); err != nil {
				t.Fatal(err)
			}
			if names, err := c.be.ListParts(); err != nil || len(names) != 0 {
				t.Fatalf("ListParts after DropStream = %v, %v; want none", names, err)
			}
		}},
		{"equal schema is adopted, a different one refused", func(t *testing.T, c conformant, _ opener) {
			if err := c.be.CreateStream("s", testSchema()); err != nil {
				t.Fatalf("equal-schema CreateStream = %v, want adopted", err)
			}
			other := stream.MustSchema(stream.Field{Name: "z", Type: stream.TypeString})
			if err := c.be.CreateStream("s", other); err == nil {
				t.Fatal("CreateStream with a different schema must be refused")
			}
		}},
		{"unknown stream and query are not_found", func(t *testing.T, c conformant, _ opener) {
			for what, err := range map[string]error{
				"StreamSchema":     func() error { _, err := c.be.StreamSchema("ghost"); return err }(),
				"DropStream":       c.be.DropStream("ghost"),
				"IngestBatch":      c.be.IngestBatch("ghost", tuples(0, 1), nil),
				"Replicate":        func() error { _, err := c.be.Replicate("ghost", conformLog, 0, false, tuples(0, 1)); return err }(),
				"DeletePart":       c.be.DeletePart("q99999"),
				"Subscribe":        func() error { _, err := partOutput(t, c.be, "q99999"); return err }(),
				"ExportQueryState": func() error { _, err := c.be.ExportQueryState("q99999"); return err }(),
			} {
				if !c.notFound(err) {
					t.Errorf("%s of an unknown name = %v, want not_found", what, err)
				}
			}
		}},
	}
	for _, f := range flavours {
		t.Run(f.name, func(t *testing.T) {
			for i, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					c := f.open(t, fmt.Sprintf("conform-%d", i))
					if err := c.be.CreateStream("s", testSchema()); err != nil {
						t.Fatal(err)
					}
					row.run(t, c, f.other)
				})
			}
		})
	}
	// The verb table rows hold for the remote flavour: they pin the
	// backend's wire methods to dsmsd's verb table.
	t.Run("verb table", func(t *testing.T) {
		t.Run("every wire method is one table verb", wireMethodsAreTableVerbs)
		t.Run("a lost reply is retried only for Retry verbs", retryFollowsTheTable)
	})
}

// notWire are the ShardBackend methods that send no table verb: Kind
// and Healthy are local, Close tears connections down and Subscribe
// hijacks its own connection.
var notWire = map[string]bool{"Kind": true, "Healthy": true, "Close": true, "Subscribe": true}

// wireCase is one ShardBackend wire method over a dsmsd: the table verb
// it sends, setup of the dsmsd's engine, the call (which fails on a
// wrong result), and applied, which checks on the engine that the
// call's effect landed exactly once (nil for a read).
type wireCase struct {
	verb    string
	retry   bool
	setup   func(t *testing.T, eng *dsms.Engine)
	run     func(be runtime.ShardBackend) error
	applied func(t *testing.T, eng *dsms.Engine)
}

func wire[Req, Resp any](v dsmsd.Verb[Req, Resp], setup func(*testing.T, *dsms.Engine), run func(runtime.ShardBackend) error, applied func(*testing.T, *dsms.Engine)) wireCase {
	return wireCase{verb: v.Name, retry: v.Retry, setup: setup, run: run, applied: applied}
}

// wireCases maps each ShardBackend wire method to its case.
func wireCases() map[string]wireCase {
	withStream := func(t *testing.T, eng *dsms.Engine) {
		t.Helper()
		if err := eng.CreateStream("s", testSchema()); err != nil {
			t.Fatal(err)
		}
	}
	withPart := func(t *testing.T, eng *dsms.Engine) {
		t.Helper()
		withStream(t, eng)
		if _, err := runtime.NewLocalBackend(eng).PutPart("p", runtime.DeployRequest{Script: conformScript}, nil); err != nil {
			t.Fatal(err)
		}
	}
	seqIs := func(want uint64) func(t *testing.T, eng *dsms.Engine) {
		return func(t *testing.T, eng *dsms.Engine) {
			t.Helper()
			if got, err := eng.StreamSeq("s"); err != nil || got != want {
				t.Fatalf("stream sequence = %d, %v; want %d (applied exactly once)", got, err, want)
			}
		}
	}
	partsAre := func(want ...string) func(t *testing.T, eng *dsms.Engine) {
		return func(t *testing.T, eng *dsms.Engine) {
			t.Helper()
			if got := eng.Queries(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("engine runs parts %v, want %v", got, want)
			}
		}
	}
	return map[string]wireCase{
		"CreateStream": wire(dsmsd.CreateStream, func(*testing.T, *dsms.Engine) {},
			func(be runtime.ShardBackend) error { return be.CreateStream("s", testSchema()) },
			func(t *testing.T, eng *dsms.Engine) {
				if _, err := eng.StreamSchema("s"); err != nil {
					t.Fatalf("stream not created: %v", err)
				}
			}),
		"DropStream": wire(dsmsd.DropStream, withStream,
			func(be runtime.ShardBackend) error { return be.DropStream("s") },
			func(t *testing.T, eng *dsms.Engine) {
				if _, err := eng.StreamSchema("s"); err == nil {
					t.Fatal("stream not dropped")
				}
			}),
		"StreamSchema": wire(dsmsd.Schema, withStream,
			func(be runtime.ShardBackend) error {
				s, err := be.StreamSchema("s")
				if err == nil && !s.Equal(testSchema()) {
					err = fmt.Errorf("schema %v", s)
				}
				return err
			}, nil),
		"IngestBatch": wire(dsmsd.IngestBatch, withStream,
			func(be runtime.ShardBackend) error { return be.IngestBatch("s", tuples(0, 5), nil) },
			seqIs(5)),
		"PutPart": wire(dsmsd.Deploy, withStream,
			func(be runtime.ShardBackend) error {
				_, err := be.PutPart("p", runtime.DeployRequest{Script: conformScript}, nil)
				return err
			}, partsAre("p")),
		"DeletePart": wire(dsmsd.Withdraw, withPart,
			func(be runtime.ShardBackend) error { return be.DeletePart("p") },
			partsAre()),
		"ListParts": wire(dsmsd.ListParts, withPart,
			func(be runtime.ShardBackend) error {
				names, err := be.ListParts()
				if err == nil && fmt.Sprint(names) != "[p]" {
					err = fmt.Errorf("parts %v, want [p]", names)
				}
				return err
			}, nil),
		"Replicate": wire(dsmsd.Replicate, withStream,
			func(be runtime.ShardBackend) error {
				acked, err := be.Replicate("s", conformLog, 0, false, tuples(0, 5))
				if err == nil && acked != 5 {
					err = fmt.Errorf("acked %d, want 5", acked)
				}
				return err
			}, seqIs(5)),
		"ExportQueryState": wire(dsmsd.Migrate, withPart,
			func(be runtime.ShardBackend) error {
				st, err := be.ExportQueryState("p")
				if err == nil && st == nil {
					err = errors.New("no state")
				}
				return err
			}, nil),
	}
}

// behindRelay stands up a dsmsd and a RemoteBackend reaching it through
// a relay that cuts the first request of verb cut ("" for none).
func behindRelay(t *testing.T, cut string) (runtime.ShardBackend, *dsms.Engine, *cutRelay) {
	t.Helper()
	srv, addr := startDSMSD(t, "relayed", nil)
	t.Cleanup(srv.Engine.Close)
	t.Cleanup(srv.Close)
	r := startRelay(t, addr, cut)
	be := runtime.NewRemoteBackend(r.addr(), runtime.RemoteOptions{HealthInterval: -1, CallTimeout: 5 * time.Second})
	t.Cleanup(func() { _ = be.Close() })
	return be, srv.Engine, r
}

// wireMethodsAreTableVerbs: every ShardBackend method but notWire has a
// case, and calling it sends its case's verb, once and nothing else
// (the ping a dial sends aside), so a new wire method cannot ship
// without a table verb.
func wireMethodsAreTableVerbs(t *testing.T) {
	cases := wireCases()
	iface := reflect.TypeOf((*runtime.ShardBackend)(nil)).Elem()
	methods := map[string]bool{}
	byVerb := map[string]string{}
	for i := 0; i < iface.NumMethod(); i++ {
		name := iface.Method(i).Name
		methods[name] = true
		if notWire[name] {
			continue
		}
		w, ok := cases[name]
		if !ok {
			t.Errorf("ShardBackend.%s maps to no verb of dsmsd's table", name)
			continue
		}
		if other, dup := byVerb[w.verb]; dup {
			t.Errorf("ShardBackend.%s and .%s both map to %s", name, other, w.verb)
		}
		byVerb[w.verb] = name
		be, eng, r := behindRelay(t, "")
		w.setup(t, eng)
		if err := w.run(be); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got := r.sent(); len(got) != 1 || got[0] != w.verb {
			t.Errorf("ShardBackend.%s sent %v, want exactly [%s]", name, got, w.verb)
		}
	}
	for name := range cases {
		if !methods[name] {
			t.Errorf("case %s names no ShardBackend method", name)
		}
	}
}

// retryFollowsTheTable cuts each wire method's connection after the
// dsmsd applied its request and before the reply reaches the backend.
// A Retry verb is re-sent on a fresh connection and succeeds; any other
// fails with an error wrapping protocol.ErrClosed. Either way the
// dsmsd applied the request exactly once.
func retryFollowsTheTable(t *testing.T) {
	for name, w := range wireCases() {
		t.Run(name, func(t *testing.T) {
			be, eng, r := behindRelay(t, w.verb)
			w.setup(t, eng)
			err := w.run(be)
			sends := 1
			if w.retry {
				sends = 2
				if err != nil {
					t.Fatalf("%s (Retry) = %v, want the re-sent request to succeed", w.verb, err)
				}
			} else if !errors.Is(err, protocol.ErrClosed) {
				t.Fatalf("%s = %v, want an error wrapping protocol.ErrClosed", w.verb, err)
			}
			if got := r.sent(); len(got) != sends {
				t.Fatalf("%s was sent %d times (%v), want %d", w.verb, len(got), got, sends)
			}
			if w.applied != nil {
				w.applied(t, eng)
			}
		})
	}
}

// cutRelay forwards protocol frames between clients and a dsmsd and
// records the type of every request it forwards. The first request of
// type cut is forwarded and its reply awaited; then both sides of that
// connection close instead of relaying the reply: the server applied
// the request, and the caller's connection died under it.
type cutRelay struct {
	ln    net.Listener
	up    string
	cut   string
	mu    sync.Mutex
	seen  []string
	fired bool
	conns []net.Conn
}

func startRelay(t *testing.T, upstream, cut string) *cutRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &cutRelay{ln: ln, up: upstream, cut: cut}
	go r.accept()
	t.Cleanup(func() {
		_ = ln.Close()
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, c := range r.conns {
			_ = c.Close()
		}
	})
	return r
}

func (r *cutRelay) addr() string { return r.ln.Addr().String() }

// sent lists the forwarded requests, less the pings that dials send.
func (r *cutRelay) sent() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, typ := range r.seen {
		if typ != dsmsd.Ping.Name {
			out = append(out, typ)
		}
	}
	return out
}

func (r *cutRelay) accept() {
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.up)
		if err != nil {
			_ = down.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, down, up)
		r.mu.Unlock()
		var cutID atomic.Uint64 // message ids start at 1
		go func() {
			defer up.Close()
			for {
				m, err := protocol.ReadFrame(down)
				if err != nil {
					return
				}
				r.mu.Lock()
				r.seen = append(r.seen, m.Type)
				if m.Type == r.cut && !r.fired {
					r.fired = true
					cutID.Store(m.ID)
				}
				r.mu.Unlock()
				if protocol.WriteFrame(up, m) != nil {
					return
				}
			}
		}()
		go func() {
			defer down.Close()
			for {
				m, err := protocol.ReadFrame(up)
				if err != nil || m.ID == cutID.Load() {
					_ = up.Close()
					return
				}
				if protocol.WriteFrame(down, m) != nil {
					return
				}
			}
		}()
	}
}

// exportOps exports part name's state from c.
func exportOps(t *testing.T, c conformant, name string) *dsms.QueryState {
	t.Helper()
	st, err := c.be.ExportQueryState(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Ops) != 1 || st.Ops[0].Aggregate == nil {
		t.Fatalf("exported state %+v, want one aggregate", st)
	}
	return st
}

// importRun exports conformScript's state from src after 6 of 12
// tuples and puts it on dst with PutPart, replacing a standby part of
// the same name when replace is set (a migration) or into a stream that
// has never ingested otherwise (a restore); dst must then emit what an
// uninterrupted query does, Seqs included.
func importRun(t *testing.T, src, dst conformant, replace bool) {
	t.Helper()
	const cut, total = 6, 12
	const name = "rt/rq00001/p0"
	want := unmigratedEmissions(t, tuples(0, total))

	req := runtime.DeployRequest{Script: conformScript}
	d, err := src.be.PutPart(name, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.be.IngestBatch("s", tuples(0, cut), nil); err != nil {
		t.Fatal(err)
	}
	st, err := src.be.ExportQueryState(d.ID)
	if err != nil {
		t.Fatal(err)
	}

	if replace {
		if _, err := dst.be.PutPart(name, req, nil); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := dst.be.PutPart(name, req, st)
	if err != nil {
		t.Fatal(err)
	}
	if names, err := dst.be.ListParts(); err != nil || len(names) != 1 {
		t.Fatalf("target runs %v after the import (%v), want 1 part", names, err)
	}
	if got := dst.seq(t, "s"); got != cut {
		t.Fatalf("stream sequence after the import = %d, want %d (the exported position)", got, cut)
	}
	out, err := partOutput(t, dst.be, moved.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.be.IngestBatch("s", tuples(cut, total-cut), nil); err != nil {
		t.Fatal(err)
	}
	sameEmissions(t, collectEmissionsN(t, out, len(want)-1), want[1:])
}

// unmigratedEmissions runs conformScript over input on one engine.
func unmigratedEmissions(t *testing.T, input []stream.Tuple) []stream.Tuple {
	t.Helper()
	ref := openLocal(t, "conform-ref")
	if err := ref.be.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	d, err := ref.be.PutPart("ref", runtime.DeployRequest{Script: conformScript}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := partOutput(t, ref.be, d.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.be.IngestBatch("s", input, nil); err != nil {
		t.Fatal(err)
	}
	return collectEmissionsN(t, out, len(input)/4)
}

// partOutput subscribes to part name on be and returns the part's
// output through a buffered channel that closes when the part ends. The
// subscription closes with the test, and a push that did not fit the
// buffer fails it.
func partOutput(t *testing.T, be runtime.ShardBackend, name string) (<-chan stream.Tuple, error) {
	t.Helper()
	var (
		mu    sync.Mutex
		ended bool
		lost  int
	)
	out := make(chan stream.Tuple, 1<<12)
	push := func(ts []stream.Tuple) {
		mu.Lock()
		defer mu.Unlock()
		if ended {
			return
		}
		for _, tu := range ts {
			select {
			case out <- tu:
			default:
				lost++
			}
		}
	}
	end := func() {
		mu.Lock()
		defer mu.Unlock()
		if !ended {
			ended = true
			close(out)
		}
	}
	closeFn, err := be.Subscribe(name, push, end)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() {
		closeFn()
		mu.Lock()
		defer mu.Unlock()
		if lost > 0 {
			t.Errorf("part %s: %d emissions overflowed the test buffer", name, lost)
		}
	})
	return out, nil
}
