package proxy

import (
	"testing"

	"repro/internal/client"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

func mapPolicy(id, subject string) *xacml.Policy {
	return xacml.NewPermitPolicy(id,
		xacml.NewTarget(subject, "weather", "read"),
		xacml.Obligation{
			ObligationID: xacmlplus.ObligationMap,
			FulfillOn:    xacml.EffectPermit,
			Assignments: []xacml.AttributeAssignment{
				xacml.NewStringAssignment(xacmlplus.AttrMapAttribute, "rainrate"),
			},
		})
}

// TestProxySelectiveInvalidation verifies that removing one policy
// evicts only its own cached handles — other policies' entries stay
// warm.
func TestProxySelectiveInvalidation(t *testing.T) {
	cli, px, eng := startChain(t)
	px.SetCaching(true)
	if _, err := cli.LoadPolicyObject(mapPolicy("p:a", "alice")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.LoadPolicyObject(mapPolicy("p:b", "bob")); err != nil {
		t.Fatal(err)
	}
	ra, err := client.ExpectGranted(cli.RequestAccess("alice", "weather", "read", nil))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := client.ExpectGranted(cli.RequestAccess("bob", "weather", "read", nil))
	if err != nil {
		t.Fatal(err)
	}
	_ = ra
	// Remove alice's policy: her grant is withdrawn, bob's cache entry
	// must survive.
	if _, err := cli.RemovePolicy("p:a"); err != nil {
		t.Fatal(err)
	}
	if eng.QueryCount() != 1 {
		t.Fatalf("engine queries = %d, want only bob's", eng.QueryCount())
	}
	// Alice's repeat must NOT be served from cache (stale handle).
	respA, err := cli.RequestAccess("alice", "weather", "read", nil)
	if err != nil {
		t.Fatal(err)
	}
	if respA.Granted() {
		t.Errorf("stale cached grant for alice: %+v", respA)
	}
	// Bob's repeat IS a cache hit with the same handle.
	hitsBefore, _ := px.Stats()
	respB, err := cli.RequestAccess("bob", "weather", "read", nil)
	if err != nil {
		t.Fatal(err)
	}
	hitsAfter, _ := px.Stats()
	if !respB.Reused || respB.Handle != rb.Handle {
		t.Errorf("bob's entry should have survived: %+v", respB)
	}
	if hitsAfter != hitsBefore+1 {
		t.Errorf("bob's repeat should be a cache hit (hits %d -> %d)", hitsBefore, hitsAfter)
	}
}

// TestProxyCacheInvalidationOnPolicyUpdate reloads a policy, which
// withdraws the grants of its old version: the proxy must not keep
// serving the withdrawn handle.
func TestProxyCacheInvalidationOnPolicyUpdate(t *testing.T) {
	cli, px, eng := startChain(t)
	px.SetCaching(true)
	if _, err := cli.LoadPolicyObject(mapPolicy("p:a", "alice")); err != nil {
		t.Fatal(err)
	}
	first, err := client.ExpectGranted(cli.RequestAccess("alice", "weather", "read", nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.LoadPolicyObject(mapPolicy("p:a", "alice")); err != nil {
		t.Fatal(err)
	}
	if eng.QueryCount() != 0 {
		t.Fatalf("engine queries = %d after the reload, want 0", eng.QueryCount())
	}
	resp, err := client.ExpectGranted(cli.RequestAccess("alice", "weather", "read", nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Reused || resp.Handle == first.Handle {
		t.Errorf("served the withdrawn handle %s after a reload: %+v", first.Handle, resp)
	}
}

// TestProxyEvictsReusedAnswerOfAnotherPolicy covers an answer cached
// under one policy that names a grant another policy spawned: the PEP
// answers a repeat with the live grant's handle but the id of the
// policy that decided it now. Removing the spawning policy withdraws
// the grant, and the proxy must evict that answer too.
func TestProxyEvictsReusedAnswerOfAnotherPolicy(t *testing.T) {
	s := startStack(t)
	cli := dial(t, s.pxAddr)
	s.px.SetCaching(true)
	// p:x comes first but permits only bob; p:a permits alice.
	for _, pol := range []*xacml.Policy{mapPolicy("p:x", "bob"), mapPolicy("p:a", "alice")} {
		if _, err := cli.LoadPolicyObject(pol); err != nil {
			t.Fatal(err)
		}
	}
	first, err := client.ExpectGranted(cli.RequestAccess("alice", "weather", "read", nil))
	if err != nil {
		t.Fatal(err)
	}
	// p:x now permits alice with the same obligations; it decides her
	// requests from here on, while her grant stays p:a's.
	if _, err := cli.LoadPolicyObject(mapPolicy("p:x", "alice")); err != nil {
		t.Fatal(err)
	}
	// A second document for the same request misses the cache, and the
	// PEP answers it with the live grant, decided by p:x.
	req := xacml.NewRequest("alice", "weather", "read")
	req.AddSubjectAttribute("role", "analyst")
	doc, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	again, err := client.ExpectGranted(cli.RequestAccessXML(string(doc), ""))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Reused || again.Handle != first.Handle || again.PolicyID != "p:x" {
		t.Fatalf("want p:x answering with the live grant %s: %+v", first.Handle, again)
	}
	if _, err := cli.RemovePolicy("p:a"); err != nil {
		t.Fatal(err)
	}
	resp, err := client.ExpectGranted(cli.RequestAccessXML(string(doc), ""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Handle == first.Handle {
		t.Errorf("served %s, withdrawn with p:a: %+v", first.Handle, resp)
	}
	if id, handle, _, ok := s.pep.Manager.Grant("alice", "weather"); !ok || handle != resp.Handle || id != resp.QueryID {
		t.Errorf("answer %s/%s, live grant %s/%s (held %v)", resp.QueryID, resp.Handle, id, handle, ok)
	}
}
