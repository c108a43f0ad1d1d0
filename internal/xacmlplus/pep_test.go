package xacmlplus

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/dsms"
	"repro/internal/expr"
	"repro/internal/xacml"
)

// newTestPEP wires a PEP over an in-process engine with the weather
// stream and the Fig 2 policy loaded.
func newTestPEP(t *testing.T) (*PEP, *dsms.Engine) {
	t.Helper()
	eng := dsms.NewEngine("test")
	t.Cleanup(eng.Close)
	if err := eng.CreateStream("weather", weatherTestSchema()); err != nil {
		t.Fatal(err)
	}
	pdp := xacml.NewPDP()
	pdp.AddPolicy(xacml.NewPermitPolicy("nea:weather:lta",
		xacml.NewTarget("LTA", "weather", "read"), fig2Obligations()...))
	return NewPEP(pdp, LocalEngine{E: eng}), eng
}

func fig4aQuery(t *testing.T) *UserQuery {
	t.Helper()
	q, err := ParseUserQuery([]byte(fig4aXML))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestPEPGrantWithUserQuery(t *testing.T) {
	pep, eng := newTestPEP(t)
	resp, err := pep.HandleRequest(xacml.NewRequest("LTA", "weather", "read"), fig4aQuery(t))
	if err != nil {
		t.Fatalf("HandleRequest: %v", err)
	}
	if resp.Decision != xacml.Permit || !resp.Granted() {
		t.Fatalf("resp = %+v", resp)
	}
	if !strings.HasPrefix(resp.Handle, "dsms://test/streams/") {
		t.Errorf("handle = %q", resp.Handle)
	}
	if resp.PolicyID != "nea:weather:lta" {
		t.Errorf("policy id = %q", resp.PolicyID)
	}
	// The generated script is the Fig 4(b) shape.
	for _, want := range []string{"WHERE", "rainrate > 50", "avg(rainrate) AS avgrainrate", "SIZE 10 ADVANCE 2"} {
		if !strings.Contains(resp.Script, want) {
			t.Errorf("script missing %q:\n%s", want, resp.Script)
		}
	}
	if eng.QueryCount() != 1 {
		t.Errorf("engine queries = %d", eng.QueryCount())
	}
	// Timings populated.
	if resp.Timings.Total() <= 0 {
		t.Error("timings should be positive")
	}
}

func TestPEPGrantPlainRequest(t *testing.T) {
	pep, _ := newTestPEP(t)
	resp, err := pep.HandleRequest(xacml.NewRequest("LTA", "weather", "read"), nil)
	if err != nil {
		t.Fatalf("HandleRequest: %v", err)
	}
	if !resp.Granted() {
		t.Fatalf("plain request should be granted: %+v", resp)
	}
	// Policy graph alone: script contains the policy's window 5/2.
	if !strings.Contains(resp.Script, "SIZE 5 ADVANCE 2") {
		t.Errorf("script:\n%s", resp.Script)
	}
}

func TestPEPDeny(t *testing.T) {
	pep, _ := newTestPEP(t)
	resp, err := pep.HandleRequest(xacml.NewRequest("EMA", "weather", "read"), nil)
	if err != nil {
		t.Fatalf("HandleRequest: %v", err)
	}
	if resp.Decision != xacml.NotApplicable || resp.Granted() {
		t.Errorf("resp = %+v", resp)
	}
}

func TestPEPSingleAccessConstraint(t *testing.T) {
	pep, eng := newTestPEP(t)
	req := xacml.NewRequest("LTA", "weather", "read")
	first, err := pep.HandleRequest(req, nil)
	if err != nil {
		t.Fatalf("first request: %v", err)
	}
	// An identical repeat is answered idempotently with the same handle
	// (it carries no new information, so §3.4 is not violated).
	second, err := pep.HandleRequest(req, nil)
	if err != nil {
		t.Fatalf("identical repeat: %v", err)
	}
	if !second.Reused || second.Handle != first.Handle {
		t.Fatalf("repeat should reuse the grant: %+v", second)
	}
	if eng.QueryCount() != 1 {
		t.Fatalf("engine queries = %d, want 1", eng.QueryCount())
	}
	// A *different* query on the same stream — the reconstruction-attack
	// vector — is rejected (§3.4).
	attack := &UserQuery{
		Stream: StreamRef{Name: "weather"},
		Aggregation: &AggClause{
			WindowType: "tuple", WindowSize: 6, WindowStep: 2,
			Attributes: []string{"avg(rainrate)"},
		},
	}
	if _, err := pep.HandleRequest(req, attack); err == nil || !strings.Contains(err.Error(), "single access") {
		t.Fatalf("different window should hit the single-access guard, got %v", err)
	}
	// After release, access is possible again.
	if id, err := pep.Release("LTA", "weather"); err != nil || id != first.QueryID {
		t.Fatalf("Release = %q, %v; want the withdrawn %q", id, err, first.QueryID)
	}
	if _, err := pep.HandleRequest(req, attack); err != nil {
		t.Fatalf("request after release: %v", err)
	}
}

func TestPEPReleaseUnknown(t *testing.T) {
	pep, _ := newTestPEP(t)
	if _, err := pep.Release("nobody", "weather"); err == nil {
		t.Error("releasing a non-grant must fail")
	}
}

func TestPEPNRBlocksDeployment(t *testing.T) {
	pep, eng := newTestPEP(t)
	// User demands rainrate < 1 while the policy filters rainrate > 5
	// ... wait, that's PR not NR; use a window conflict: user window
	// smaller than the policy's (rule 1) -> NR.
	q := &UserQuery{
		Stream: StreamRef{Name: "weather"},
		Aggregation: &AggClause{
			WindowType: "tuple", WindowSize: 3, WindowStep: 2,
			Attributes: []string{"avg(rainrate)"},
		},
	}
	resp, err := pep.HandleRequest(xacml.NewRequest("LTA", "weather", "read"), q)
	if err != nil {
		t.Fatalf("HandleRequest: %v", err)
	}
	if resp.Verdict != expr.VerdictNR || resp.Granted() {
		t.Fatalf("NR should block deployment: %+v", resp)
	}
	if eng.QueryCount() != 0 {
		t.Errorf("engine queries = %d, want 0", eng.QueryCount())
	}
	// The user slot is not consumed by a refused request.
	if _, err := pep.HandleRequest(xacml.NewRequest("LTA", "weather", "read"), nil); err != nil {
		t.Errorf("clean request after NR refusal: %v", err)
	}
}

func TestPEPPRBlocksByDefault(t *testing.T) {
	pep, eng := newTestPEP(t)
	// User wants rainrate > 1: the policy's rainrate > 5 removes part
	// of the requested range -> PR.
	q := &UserQuery{
		Stream: StreamRef{Name: "weather"},
		Filter: &FilterClause{Condition: "rainrate > 1"},
	}
	resp, err := pep.HandleRequest(xacml.NewRequest("LTA", "weather", "read"), q)
	if err != nil {
		t.Fatalf("HandleRequest: %v", err)
	}
	if resp.Verdict != expr.VerdictPR || resp.Granted() {
		t.Fatalf("PR should warn and block by default: %+v", resp)
	}
	if eng.QueryCount() != 0 {
		t.Errorf("engine queries = %d", eng.QueryCount())
	}
}

func TestPEPDeployOnPR(t *testing.T) {
	pep, eng := newTestPEP(t)
	pep.DeployOnPR = true
	q := &UserQuery{
		Stream: StreamRef{Name: "weather"},
		Filter: &FilterClause{Condition: "rainrate > 1"},
	}
	resp, err := pep.HandleRequest(xacml.NewRequest("LTA", "weather", "read"), q)
	if err != nil {
		t.Fatalf("HandleRequest: %v", err)
	}
	if resp.Verdict != expr.VerdictPR || !resp.Granted() {
		t.Fatalf("DeployOnPR should deploy with a warning: %+v", resp)
	}
	// Merged filter keeps the policy's bound: rainrate > 5.
	if !strings.Contains(resp.Script, "rainrate > 5") {
		t.Errorf("script:\n%s", resp.Script)
	}
	if eng.QueryCount() != 1 {
		t.Errorf("engine queries = %d", eng.QueryCount())
	}
}

func TestPEPUserQueryStreamMismatch(t *testing.T) {
	pep, _ := newTestPEP(t)
	q := &UserQuery{Stream: StreamRef{Name: "gps"}}
	if _, err := pep.HandleRequest(xacml.NewRequest("LTA", "weather", "read"), q); err == nil {
		t.Error("stream mismatch must fail")
	}
}

func TestPEPRemovePolicyWithdrawsGraphs(t *testing.T) {
	pep, eng := newTestPEP(t)
	resp, err := pep.HandleRequest(xacml.NewRequest("LTA", "weather", "read"), nil)
	if err != nil || !resp.Granted() {
		t.Fatalf("grant: (%+v,%v)", resp, err)
	}
	withdrawn, err := pep.RemovePolicy("nea:weather:lta")
	if err != nil {
		t.Fatalf("RemovePolicy: %v", err)
	}
	if len(withdrawn) != 1 || withdrawn[0] != resp.QueryID {
		t.Errorf("withdrawn = %v", withdrawn)
	}
	if eng.QueryCount() != 0 {
		t.Errorf("engine queries = %d after policy removal", eng.QueryCount())
	}
	// Subsequent requests are no longer permitted.
	resp2, err := pep.HandleRequest(xacml.NewRequest("LTA", "weather", "read"), nil)
	if err != nil {
		t.Fatalf("request after removal: %v", err)
	}
	if resp2.Decision == xacml.Permit {
		t.Error("permit after policy removal")
	}
}

func TestPEPUpdatePolicyWithdrawsOldGraphs(t *testing.T) {
	pep, eng := newTestPEP(t)
	resp, err := pep.HandleRequest(xacml.NewRequest("LTA", "weather", "read"), nil)
	if err != nil || !resp.Granted() {
		t.Fatal("grant failed")
	}
	// Update with a more restrictive policy.
	newPol := xacml.NewPermitPolicy("nea:weather:lta",
		xacml.NewTarget("LTA", "weather", "read"),
		xacml.Obligation{
			ObligationID: ObligationMap,
			FulfillOn:    xacml.EffectPermit,
			Assignments: []xacml.AttributeAssignment{
				xacml.NewStringAssignment(AttrMapAttribute, "rainrate"),
			},
		})
	withdrawn, err := pep.UpdatePolicy(newPol)
	if err != nil {
		t.Fatalf("UpdatePolicy: %v", err)
	}
	if len(withdrawn) != 1 {
		t.Errorf("withdrawn = %v", withdrawn)
	}
	if eng.QueryCount() != 0 {
		t.Errorf("old graph still running")
	}
	// New request runs under the new policy.
	resp2, err := pep.HandleRequest(xacml.NewRequest("LTA", "weather", "read"), nil)
	if err != nil || !resp2.Granted() {
		t.Fatalf("request under new policy: (%+v,%v)", resp2, err)
	}
	if !strings.Contains(resp2.Script, "SELECT rainrate FROM weather") {
		t.Errorf("new policy should project only rainrate:\n%s", resp2.Script)
	}
}

// TestPEPEndToEndDataFlow grants access and verifies the delivered
// tuples obey the policy: only rainrate > 50 aggregated in 10/2 windows.
func TestPEPEndToEndDataFlow(t *testing.T) {
	pep, eng := newTestPEP(t)
	resp, err := pep.HandleRequest(xacml.NewRequest("LTA", "weather", "read"), fig4aQuery(t))
	if err != nil || !resp.Granted() {
		t.Fatalf("grant: (%+v,%v)", resp, err)
	}
	sub, err := eng.Subscribe(resp.Handle)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for _, tu := range weatherTuples(100) {
		if err := eng.Ingest("weather", tu); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	eng.Flush()
	n := 0
	for len(sub.C) > 0 {
		out := <-sub.C
		n++
		// Schema: lastvalsamplingtime? No: merged aggs = rainrate:avg only.
		if len(out.Values) != 1 {
			t.Fatalf("output arity = %d", len(out.Values))
		}
		if out.Values[0].Double() <= 50 {
			t.Errorf("avg rainrate %v <= 50 leaked through", out.Values[0])
		}
	}
	// 49 tuples pass rainrate > 50 (51..99), windows 10/2: emissions at
	// the 10th,12th,...,48th passing tuple = 20 windows.
	if n != 20 {
		t.Errorf("windows delivered = %d, want 20", n)
	}
}

func TestPEPNilRequest(t *testing.T) {
	pep, _ := newTestPEP(t)
	if _, err := pep.HandleRequest(nil, nil); err == nil {
		t.Error("nil request must fail")
	}
}

func TestGraphManager(t *testing.T) {
	m := NewGraphManager()
	if err := m.Register("pol1", "alice", "s", "q1", "h1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := m.Register("pol1", "alice", "s", "q2", "h2"); err == nil {
		t.Error("second grant for same (user,stream) must fail")
	}
	if err := m.Register("pol1", "alice", "t", "q3", "h3"); err != nil {
		t.Errorf("different stream should be fine: %v", err)
	}
	if err := m.Register("pol2", "bob", "s", "q4", "h4"); err != nil {
		t.Errorf("different user should be fine: %v", err)
	}
	if id, ok := m.ActiveQuery("ALICE", "S"); !ok || id != "q1" {
		t.Errorf("ActiveQuery case-insensitive = (%q,%v)", id, ok)
	}
	if h, ok := m.Handle("q1"); !ok || h != "h1" {
		t.Errorf("Handle = (%q,%v)", h, ok)
	}
	if m.ActiveCount() != 3 {
		t.Errorf("ActiveCount = %d", m.ActiveCount())
	}
	// Policy removal returns all its query ids.
	ids := m.OnPolicyRemoved("pol1")
	if len(ids) != 2 {
		t.Errorf("OnPolicyRemoved = %v", ids)
	}
	if _, ok := m.ActiveQuery("alice", "s"); ok {
		t.Error("grant should be gone after policy removal")
	}
	// Release.
	id, ok := m.Release("bob", "s")
	if !ok || id != "q4" {
		t.Errorf("Release = (%q,%v)", id, ok)
	}
	if _, ok := m.Release("bob", "s"); ok {
		t.Error("double release")
	}
	if m.Remove("q4") {
		t.Error("Remove after release should report false")
	}
	if m.ActiveCount() != 0 {
		t.Errorf("ActiveCount = %d at end", m.ActiveCount())
	}
}

// TestPEPAuditTrail: with auditing enabled, every decision is recorded
// in a verifiable chain (the §6 accountability extension).
func TestPEPAuditTrail(t *testing.T) {
	pep, _ := newTestPEP(t)
	log := audit.NewLog(nil)
	pep.Audit = log

	// Grant, refusal, release, re-grant, policy removal (which kills
	// the live grant, producing a per-subject withdraw event).
	req := xacml.NewRequest("LTA", "weather", "read")
	if _, err := pep.HandleRequest(req, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pep.HandleRequest(xacml.NewRequest("EMA", "weather", "read"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pep.Release("LTA", "weather"); err != nil {
		t.Fatal(err)
	}
	if _, err := pep.HandleRequest(xacml.NewRequest("LTA", "weather", "read"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pep.RemovePolicy("nea:weather:lta"); err != nil {
		t.Fatal(err)
	}

	events := log.Events()
	if len(events) != 6 {
		t.Fatalf("events = %d, want 6", len(events))
	}
	if events[0].Kind != "access" || events[0].Decision != "Permit" || events[0].Handle == "" {
		t.Errorf("grant event = %+v", events[0])
	}
	if events[1].Kind != "access" || events[1].Decision != "NotApplicable" || events[1].Handle != "" {
		t.Errorf("refusal event = %+v", events[1])
	}
	if events[2].Kind != "release" || events[2].Subject != "LTA" {
		t.Errorf("release event = %+v", events[2])
	}
	if events[3].Kind != "access" || events[3].Decision != "Permit" {
		t.Errorf("re-grant event = %+v", events[3])
	}
	if events[4].Kind != "withdraw" || events[4].Subject != "LTA" ||
		events[4].Resource != "weather" || events[4].PolicyID != "nea:weather:lta" {
		t.Errorf("withdraw event = %+v", events[4])
	}
	if events[5].Kind != "policy-remove" || events[5].PolicyID != "nea:weather:lta" {
		t.Errorf("removal event = %+v", events[5])
	}
	if idx := log.Verify(); idx != -1 {
		t.Errorf("audit chain broken at %d", idx)
	}
}
