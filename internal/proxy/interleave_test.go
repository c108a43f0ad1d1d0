package proxy

import (
	"math/rand"
	"net"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

// fakeUpstream is a data server whose access replies the test sends by
// hand, in any order relative to the other replies. A release is
// answered at once as withdrawing q00001.
type fakeUpstream struct {
	conn     *protocol.Conn
	accesses chan *protocol.Message
}

func startFakeUpstream(t *testing.T) (addr string, f *fakeUpstream) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	f = &fakeUpstream{accesses: make(chan *protocol.Message, 4)}
	ready := make(chan struct{})
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(ready)
			return
		}
		f.conn = protocol.NewConn(nc)
		close(ready)
		for {
			m, err := f.conn.Recv()
			if err != nil {
				return
			}
			switch m.Type {
			case server.MsgAccess:
				f.accesses <- m
			case server.MsgRelease:
				f.reply(t, m, server.ReleaseResp{Withdrawn: []string{"q00001"}})
			}
		}
	}()
	t.Cleanup(func() {
		<-ready
		if f.conn != nil {
			_ = f.conn.Close()
		}
	})
	return ln.Addr().String(), f
}

func (f *fakeUpstream) reply(t *testing.T, m *protocol.Message, payload any) {
	resp, err := protocol.Encode(m.Type+".ok", m.ID, payload)
	if err == nil {
		err = f.conn.Send(resp)
	}
	if err != nil {
		t.Errorf("fake upstream reply: %v", err)
	}
}

func granted(id string) server.AccessResp {
	return server.AccessResp{Decision: "Permit", PolicyID: "p:a", Verdict: "OK", QueryID: id, Handle: "stream://" + id}
}

// TestProxyDoesNotCacheAnswerWithdrawnInFlight holds the upstream's
// access reply until a release of the same grant has passed through the
// proxy. The answer was true when the server gave it, but its query is
// gone by the time it reaches the proxy, so it must not be cached.
func TestProxyDoesNotCacheAnswerWithdrawnInFlight(t *testing.T) {
	upAddr, up := startFakeUpstream(t)
	px, err := New(upAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	px.SetCaching(true)
	pxAddr, err := px.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	requester, releaser := dial(t, pxAddr), dial(t, pxAddr)

	answered := make(chan server.AccessResp, 1)
	go func() {
		resp, err := requester.RequestAccess("alice", "weather", "read", nil)
		if err != nil {
			t.Errorf("request in flight: %v", err)
		}
		answered <- resp
	}()
	held := <-up.accesses
	if err := releaser.Release("alice", "weather"); err != nil {
		t.Fatal(err)
	}
	up.reply(t, held, granted("q00001"))
	if resp := <-answered; resp.Handle != "stream://q00001" {
		t.Fatalf("in-flight answer = %+v", resp)
	}

	// The repeat must go upstream, not be served the withdrawn handle.
	again := make(chan server.AccessResp, 1)
	go func() {
		resp, err := requester.RequestAccess("alice", "weather", "read", nil)
		if err != nil {
			t.Errorf("repeat: %v", err)
		}
		again <- resp
	}()
	select {
	case resp := <-again:
		t.Fatalf("repeat answered from the cache: %+v", resp)
	case m := <-up.accesses:
		up.reply(t, m, granted("q00002"))
	}
	if resp := <-again; resp.Reused || resp.Handle != "stream://q00002" {
		t.Errorf("repeat served %+v, want the fresh q00002", resp)
	}
	if hits, misses := px.Stats(); hits != 0 || misses != 2 {
		t.Errorf("cache stats = %d hits %d misses, want 0/2", hits, misses)
	}
}

// interleaving drives the real stack with concurrent clients and
// checks the benchmark's handle-identity rule: a granted answer names
// the live grant the server's GraphManager holds for (subject, stream).
type interleaving struct {
	t        *testing.T
	s        *stack
	subjects []string
	streams  []string
}

// mapObligation projects one of two attribute sets, so a reload that
// switches variant changes the script a request compiles to.
func mapObligation(variant int) xacml.Obligation {
	o := xacml.Obligation{ObligationID: xacmlplus.ObligationMap, FulfillOn: xacml.EffectPermit}
	for _, attr := range [][]string{{"rainrate"}, {"samplingtime", "rainrate"}}[variant] {
		o.Assignments = append(o.Assignments, xacml.NewStringAssignment(xacmlplus.AttrMapAttribute, attr))
	}
	return o
}

// subjectPolicy permits one subject on every stream, an unkeyed policy
// for the PDP.
func subjectPolicy(subject string, variant int) *xacml.Policy {
	return xacml.NewPermitPolicy("p:"+subject, xacml.NewTarget(subject, "", "read"), mapObligation(variant))
}

// streamPolicy permits everyone on one stream, a resource-keyed policy.
func streamPolicy(name string, variant int) *xacml.Policy {
	return xacml.NewPermitPolicy("p:"+name, xacml.NewTarget("", name, "read"), mapObligation(variant))
}

// check compares a granted answer with the live grant.
func (it *interleaving) check(subject, streamName string, resp server.AccessResp) {
	id, handle, _, ok := it.s.pep.Manager.Grant(subject, streamName)
	if !ok || id != resp.QueryID || handle != resp.Handle {
		it.t.Errorf("%s on %s: answered %s (%s, reused %v), live grant %s (%s, held %v)",
			subject, streamName, resp.QueryID, resp.Handle, resp.Reused, id, handle, ok)
	}
}

// step runs one random operation. Request, release and policy errors
// are expected outcomes (a denied or conflicting request, a release of
// nothing); when checked is set, a granted answer is compared with the
// live grant at once, which is sound only while no other client can
// change that subject's grants.
func (it *interleaving) step(cli *client.Client, rng *rand.Rand, subjects []string, checked bool) {
	subject := subjects[rng.Intn(len(subjects))]
	streamName := it.streams[rng.Intn(len(it.streams))]
	switch op := rng.Intn(10); {
	case op < 5:
		resp, err := cli.RequestAccess(subject, streamName, "read", nil)
		if err == nil && resp.Granted() && checked {
			it.check(subject, streamName, resp)
		}
	case op < 7:
		_ = cli.Release(subject, streamName)
	case op < 8:
		_, _ = cli.RemovePolicy(policyFor(rng, subject, streamName, checked).PolicyID)
	default:
		_, _ = cli.LoadPolicyObject(policyFor(rng, subject, streamName, checked))
	}
}

// policyFor picks the subject's policy, or (unless the subject's grants
// must stay owned by one client) the stream's.
func policyFor(rng *rand.Rand, subject, streamName string, owned bool) *xacml.Policy {
	if owned || rng.Intn(2) == 0 {
		return subjectPolicy(subject, rng.Intn(2))
	}
	return streamPolicy(streamName, rng.Intn(2))
}

// sweep requests every (subject, stream) once with nothing else in
// flight and checks each granted answer, cache hits included.
func (it *interleaving) sweep(cli *client.Client) {
	for _, subject := range it.subjects {
		for _, streamName := range it.streams {
			resp, err := cli.RequestAccess(subject, streamName, "read", nil)
			if err == nil && resp.Granted() {
				it.check(subject, streamName, resp)
			}
		}
	}
	if q, g := it.s.eng.QueryCount(), it.s.pep.Manager.ActiveCount(); q != g {
		it.t.Errorf("engine runs %d queries for %d live grants", q, g)
	}
}

// TestProxyInterleavingServesOnlyLiveGrants runs rounds of two phases.
// In the shared phase three clients request, release, remove and reload
// across all subjects at once, so releases and policy changes race
// requests in flight; a sweep then checks every answer the cache kept.
// In the owned phase each client works on its own subject and checks
// every granted answer as it arrives.
func TestProxyInterleavingServesOnlyLiveGrants(t *testing.T) {
	s := startStack(t)
	s.px.SetCaching(true)
	it := &interleaving{t: t, s: s, subjects: []string{"alice", "bob", "carol"}, streams: []string{"weather", "traffic"}}
	clients := make([]*client.Client, len(it.subjects))
	for i := range clients {
		clients[i] = dial(t, s.pxAddr)
	}
	for _, pol := range []*xacml.Policy{streamPolicy("weather", 0), streamPolicy("traffic", 0),
		subjectPolicy("alice", 0), subjectPolicy("bob", 0), subjectPolicy("carol", 0)} {
		if _, err := clients[0].LoadPolicyObject(pol); err != nil {
			t.Fatal(err)
		}
	}
	const rounds, steps = 5, 40
	for round := 0; round < rounds; round++ {
		for phase, owned := range []bool{false, true} {
			var wg sync.WaitGroup
			for i, cli := range clients {
				subjects := it.subjects
				if owned {
					subjects = it.subjects[i : i+1]
				}
				wg.Add(1)
				go func(cli *client.Client, rng *rand.Rand, subjects []string) {
					defer wg.Done()
					for n := 0; n < steps; n++ {
						it.step(cli, rng, subjects, owned)
					}
				}(cli, rand.New(rand.NewSource(int64(100*round+10*i+phase))), subjects)
			}
			wg.Wait()
			it.sweep(clients[0])
			if t.Failed() {
				t.Fatalf("round %d (owned %v) broke the handle-identity rule", round, owned)
			}
		}
	}
	hits, misses := s.px.Stats()
	if hits == 0 || misses == 0 {
		t.Errorf("cache stats %d hits %d misses: the run never exercised both paths", hits, misses)
	}
	t.Logf("%d hits, %d misses", hits, misses)
}
