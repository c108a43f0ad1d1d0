package proxy

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/dsms"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

// stack is engine -> data server -> proxy, with the server's PEP at
// hand so tests can read the live grants.
type stack struct {
	px     *Proxy
	pxAddr string
	eng    *dsms.Engine
	pep    *xacmlplus.PEP
}

// startStack brings up engine -> data server -> proxy over two
// streams of one schema.
func startStack(t *testing.T) *stack {
	t.Helper()
	eng := dsms.NewEngine("cloud")
	t.Cleanup(eng.Close)
	schema := stream.MustSchema(
		stream.Field{Name: "samplingtime", Type: stream.TypeTimestamp},
		stream.Field{Name: "rainrate", Type: stream.TypeDouble},
	)
	for _, name := range []string{"weather", "traffic"} {
		if err := eng.CreateStream(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	pep := xacmlplus.NewPEP(xacml.NewPDP(), xacmlplus.LocalEngine{E: eng})
	srv := server.New(pep, nil)
	srvAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	px, err := New(srvAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	pxAddr, err := px.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	return &stack{px: px, pxAddr: pxAddr, eng: eng, pep: pep}
}

// dial connects a client to addr, closed when the test ends.
func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cli, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return cli
}

// startChain brings up the stack and returns a client connected to the
// proxy.
func startChain(t *testing.T) (*client.Client, *Proxy, *dsms.Engine) {
	t.Helper()
	s := startStack(t)
	return dial(t, s.pxAddr), s.px, s.eng
}

func ltaPolicy() *xacml.Policy {
	return xacml.NewPermitPolicy("p:lta",
		xacml.NewTarget("LTA", "weather", "read"),
		xacml.Obligation{
			ObligationID: xacmlplus.ObligationMap,
			FulfillOn:    xacml.EffectPermit,
			Assignments: []xacml.AttributeAssignment{
				xacml.NewStringAssignment(xacmlplus.AttrMapAttribute, "rainrate"),
			},
		})
}

func TestProxyForwarding(t *testing.T) {
	cli, _, eng := startChain(t)
	if _, err := cli.LoadPolicyObject(ltaPolicy()); err != nil {
		t.Fatalf("LoadPolicy via proxy: %v", err)
	}
	stats, err := cli.Stats()
	if err != nil || stats.Policies != 1 {
		t.Fatalf("Stats via proxy: (%+v,%v)", stats, err)
	}
	resp, err := client.ExpectGranted(cli.RequestAccess("LTA", "weather", "read", nil))
	if err != nil {
		t.Fatalf("RequestAccess via proxy: %v", err)
	}
	if eng.QueryCount() != 1 {
		t.Errorf("engine queries = %d", eng.QueryCount())
	}
	_ = resp
}

func TestProxyCacheHits(t *testing.T) {
	cli, px, _ := startChain(t)
	px.SetCaching(true)
	if _, err := cli.LoadPolicyObject(ltaPolicy()); err != nil {
		t.Fatal(err)
	}
	r1, err := client.ExpectGranted(cli.RequestAccess("LTA", "weather", "read", nil))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cli.RequestAccess("LTA", "weather", "read", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Handle != r1.Handle || !r2.Reused {
		t.Errorf("cached response = %+v", r2)
	}
	hits, misses := px.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits %d misses", hits, misses)
	}
}

func TestProxyCacheOffAlwaysForwards(t *testing.T) {
	cli, px, _ := startChain(t)
	if _, err := cli.LoadPolicyObject(ltaPolicy()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cli.RequestAccess("LTA", "weather", "read", nil); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := px.Stats()
	if hits != 0 || misses != 0 {
		t.Errorf("cache-off stats = %d/%d", hits, misses)
	}
}

func TestProxyCacheInvalidationOnPolicyRemoval(t *testing.T) {
	cli, px, eng := startChain(t)
	px.SetCaching(true)
	if _, err := cli.LoadPolicyObject(ltaPolicy()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ExpectGranted(cli.RequestAccess("LTA", "weather", "read", nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.RemovePolicy("p:lta"); err != nil {
		t.Fatalf("RemovePolicy via proxy: %v", err)
	}
	if eng.QueryCount() != 0 {
		t.Errorf("graphs not withdrawn")
	}
	// A repeat of the formerly-cached request must NOT serve the stale
	// handle: its entry was evicted, the server now denies.
	resp, err := cli.RequestAccess("LTA", "weather", "read", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted() {
		t.Errorf("stale cached grant returned after policy removal: %+v", resp)
	}
}

// TestProxyCacheInvalidationOnRelease checks that a release evicts the
// released grant's answer and no other.
func TestProxyCacheInvalidationOnRelease(t *testing.T) {
	cli, px, eng := startChain(t)
	px.SetCaching(true)
	reg := telemetry.NewRegistry()
	px.EnableTelemetry(reg)
	for _, pol := range []*xacml.Policy{mapPolicy("p:a", "alice"), mapPolicy("p:b", "bob")} {
		if _, err := cli.LoadPolicyObject(pol); err != nil {
			t.Fatal(err)
		}
	}
	ra, err := client.ExpectGranted(cli.RequestAccess("alice", "weather", "read", nil))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := client.ExpectGranted(cli.RequestAccess("bob", "weather", "read", nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Release("alice", "weather"); err != nil {
		t.Fatalf("Release via proxy: %v", err)
	}
	if eng.QueryCount() != 1 {
		t.Errorf("engine queries = %d, want only bob's", eng.QueryCount())
	}
	// Alice's next request re-deploys rather than serving the withdrawn
	// handle.
	respA, err := client.ExpectGranted(cli.RequestAccess("alice", "weather", "read", nil))
	if err != nil {
		t.Fatal(err)
	}
	if respA.Reused || respA.Handle == ra.Handle {
		t.Errorf("alice should get a fresh grant: %+v", respA)
	}
	// Bob's entry stayed warm.
	hitsBefore, _ := px.Stats()
	respB, err := cli.RequestAccess("bob", "weather", "read", nil)
	if err != nil {
		t.Fatal(err)
	}
	if hitsAfter, _ := px.Stats(); !respB.Reused || respB.Handle != rb.Handle || hitsAfter != hitsBefore+1 {
		t.Errorf("bob's repeat should be a cache hit on %s: %+v (hits %d -> %d)", rb.Handle, respB, hitsBefore, hitsAfter)
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`exacml_proxy_cache_evictions_total{cause="release"} 1`,
		`exacml_proxy_cache_evictions_total{cause="policy"} 0`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("metrics lack %q", want)
		}
	}
}

func TestProxyErrorPropagation(t *testing.T) {
	cli, _, _ := startChain(t)
	if _, err := cli.LoadPolicy([]byte("<broken")); err == nil {
		t.Error("bad policy via proxy must fail")
	}
	if err := cli.Release("nobody", "weather"); err == nil {
		t.Error("bad release via proxy must fail")
	}
}
