package xacmlplus

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/dsms"
	"repro/internal/expr"
	"repro/internal/stream"
	"repro/internal/streamql"
	"repro/internal/telemetry"
	"repro/internal/xacml"
)

// StreamEngine abstracts the back-end DSMS as the PEP sees it: look up
// a stream schema, deploy a StreamSQL script, withdraw a query. It is
// implemented by LocalEngine (in-process dsms.Engine) and by the TCP
// client that talks to a dsmsd server.
type StreamEngine interface {
	// StreamSchema returns the schema of a registered input stream.
	StreamSchema(name string) (*stream.Schema, error)
	// DeployScript compiles and runs a StreamSQL script, returning the
	// query id and the stream handle (URI) serving the output.
	DeployScript(script string) (queryID, handle string, err error)
	// Withdraw stops a deployed query by id or handle.
	Withdraw(idOrHandle string) error
}

// LocalEngine adapts an in-process dsms.Engine to the StreamEngine
// interface by compiling scripts with the streamql package.
type LocalEngine struct {
	E *dsms.Engine
}

// StreamSchema implements StreamEngine.
func (l LocalEngine) StreamSchema(name string) (*stream.Schema, error) {
	return l.E.StreamSchema(name)
}

// DeployScript implements StreamEngine.
func (l LocalEngine) DeployScript(script string) (string, string, error) {
	c, err := streamql.CompileString(script)
	if err != nil {
		return "", "", err
	}
	dep, err := l.E.Deploy(c.Graph)
	if err != nil {
		return "", "", err
	}
	return dep.ID, dep.Handle, nil
}

// Withdraw implements StreamEngine.
func (l LocalEngine) Withdraw(idOrHandle string) error {
	return l.E.Withdraw(idOrHandle)
}

// Timings is the per-phase latency breakdown the evaluation (Fig 7)
// reports for each access-control request.
type Timings struct {
	// PDP is the policy evaluation time.
	PDP time.Duration
	// QueryGraph covers obligation/user-query compilation, the
	// single-access check, merging and NR/PR analysis.
	QueryGraph time.Duration
	// Engine is the time spent deploying the script on the DSMS (the
	// paper's "StreamBase" component).
	Engine time.Duration
}

// Total sums the phases.
func (t Timings) Total() time.Duration { return t.PDP + t.QueryGraph + t.Engine }

// AccessResponse is the PEP's answer to a stream access request.
type AccessResponse struct {
	// Decision is the PDP outcome.
	Decision xacml.Decision
	// PolicyID identifies the policy that permitted the request.
	PolicyID string
	// Verdict is the NR/PR analysis outcome (§3.5). The stream is
	// deployed only when it is OK (unless the PEP is configured with
	// DeployOnPR).
	Verdict expr.Verdict
	// Warnings detail any NR/PR findings per operator.
	Warnings []Warning
	// QueryID and Handle identify the deployed continuous query; empty
	// when nothing was deployed.
	QueryID string
	// Handle is the URI the user connects to for the data stream.
	Handle string
	// Reused reports that an identical live grant already existed and
	// its handle was returned instead of deploying a new query.
	Reused bool
	// Script is the StreamSQL sent to the engine (for observability).
	Script string
	// Timings is the per-phase latency breakdown.
	Timings Timings
}

// Granted reports whether a live stream handle was issued.
func (r *AccessResponse) Granted() bool { return r.Handle != "" }

// PEP is the Policy Enforcement Point of XACML+ (§3.2): it marshals
// user requests to the PDP, compiles obligations and user queries into
// query graphs, merges them, runs the NR/PR analysis, enforces the
// single-access constraint and manages deployed graphs.
type PEP struct {
	// PDP decides requests.
	PDP *xacml.PDP
	// Engine is the back-end DSMS.
	Engine StreamEngine
	// Manager tracks deployed graphs (§3.3, §3.4).
	Manager *GraphManager
	// DeployOnPR, when set, deploys streams despite PR warnings (the
	// paper's default behaviour is to warn and not deploy; the flag
	// exists for the ablation benchmarks).
	DeployOnPR bool
	// Audit, when non-nil, records every decision into the
	// accountability log (the §6 future-work mechanism).
	Audit *audit.Log

	// tr traces each request's pdp/graph/engine phases. It defaults to
	// a registry-less tracer so Timings are measured even when
	// telemetry is off; EnableTelemetry swaps in one that also feeds
	// latency histograms.
	tr atomic.Pointer[telemetry.Tracer]
}

// Request-phase stage indices of the PEP tracer; they mirror the
// Timings fields.
const (
	stagePDP = iota
	stageGraph
	stageEngine
)

// requestStages names the PEP tracer's stages, indexed by stagePDP..
var requestStages = []string{"pdp", "graph", "engine"}

// spans returns the request tracer, lazily installing the
// registry-less default.
func (p *PEP) spans() *telemetry.Tracer {
	if t := p.tr.Load(); t != nil {
		return t
	}
	t := telemetry.NewTracer(nil, "exacml_request", requestStages, 1)
	if p.tr.CompareAndSwap(nil, t) {
		return t
	}
	return p.tr.Load()
}

// EnableTelemetry feeds the per-request phase spans into reg as
// exacml_request_stage_seconds{stage="pdp"|"graph"|"engine"},
// exacml_request_e2e_seconds and exacml_request_traces_total. Every
// request is traced (the PEP path is not the tuple hot path), and
// resp.Timings remains derived from the same span.
func (p *PEP) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	p.tr.Store(telemetry.NewTracer(reg, "exacml_request", requestStages, 1))
}

// auditEvent appends an event if auditing is enabled.
func (p *PEP) auditEvent(e audit.Event) {
	if p.Audit != nil {
		_, _ = p.Audit.Append(e)
	}
}

// NewPEP wires a PEP from its parts.
func NewPEP(pdp *xacml.PDP, engine StreamEngine) *PEP {
	return &PEP{PDP: pdp, Engine: engine, Manager: NewGraphManager()}
}

// HandleRequest runs the full §3.2 workflow. userQuery may be nil for a
// plain request. The returned response carries decision, warnings and —
// when granted — the stream handle. When auditing is enabled, the
// outcome (including refusals and errors) is recorded.
func (p *PEP) HandleRequest(req *xacml.Request, userQuery *UserQuery) (*AccessResponse, error) {
	resp, err := p.handleRequest(req, userQuery)
	if p.Audit != nil && req != nil {
		e := audit.Event{
			Kind:     "access",
			Subject:  req.SubjectID(),
			Resource: req.ResourceID(),
			Action:   req.ActionID(),
		}
		if resp != nil {
			e.PolicyID = resp.PolicyID
			e.Decision = resp.Decision.String()
			e.Verdict = resp.Verdict.String()
			e.Handle = resp.Handle
			if len(resp.Warnings) > 0 {
				parts := make([]string, len(resp.Warnings))
				for i, w := range resp.Warnings {
					parts[i] = w.String()
				}
				e.Detail = strings.Join(parts, "; ")
			}
		}
		if err != nil {
			e.Detail = err.Error()
		}
		p.auditEvent(e)
	}
	return resp, err
}

func (p *PEP) handleRequest(req *xacml.Request, userQuery *UserQuery) (*AccessResponse, error) {
	if req == nil {
		return nil, fmt.Errorf("xacmlplus: nil request")
	}
	resp := &AccessResponse{Verdict: expr.VerdictOK}

	// One span per request carries the pdp/graph/engine phase stamps;
	// the deferred cleanup closes whatever stage an early return left
	// open and derives resp.Timings from the same measurements the
	// telemetry histograms consume.
	sp := p.spans().Sample()
	defer func() {
		sp.CloseOpen()
		resp.Timings = Timings{
			PDP:        sp.Duration(stagePDP),
			QueryGraph: sp.Duration(stageGraph),
			Engine:     sp.Duration(stageEngine),
		}
		sp.Finish()
	}()

	// Step 1-2: PDP evaluation.
	sp.Begin(stagePDP)
	result, err := p.PDP.Evaluate(req)
	sp.End(stagePDP)
	if err != nil {
		return nil, fmt.Errorf("xacmlplus: PDP: %w", err)
	}
	resp.Decision = result.Decision
	resp.PolicyID = result.PolicyID
	if result.Decision != xacml.Permit {
		return resp, nil
	}

	user := req.SubjectID()
	streamName := req.ResourceID()
	if streamName == "" {
		return nil, fmt.Errorf("xacmlplus: request names no resource stream")
	}

	// Step 2 (cont.): obligations -> policy query graph.
	sp.Begin(stageGraph)
	policyGraph, err := ObligationsToGraph(streamName, result.Obligations)
	if err != nil {
		return nil, err
	}

	// Step 4: user query -> graph, merge, NR/PR analysis.
	var userGraph *dsms.QueryGraph
	if userQuery != nil {
		if uqs := strings.TrimSpace(userQuery.Stream.Name); uqs != "" && !strings.EqualFold(uqs, streamName) {
			return resp, fmt.Errorf("xacmlplus: user query targets stream %q but request asks for %q", uqs, streamName)
		}
		userGraph, err = userQuery.ToGraph()
		if err != nil {
			return resp, err
		}
		userGraph.Input = streamName
	}

	check, err := CheckGraphs(policyGraph, userGraph)
	if err != nil {
		return resp, err
	}
	resp.Verdict = check.Verdict
	resp.Warnings = check.Warnings
	if check.Verdict == expr.VerdictNR || (check.Verdict == expr.VerdictPR && !p.DeployOnPR) {
		// Step 5 gate: warn the user instead of deploying.
		return resp, nil
	}

	merged, err := MergeGraphs(policyGraph, userGraph)
	if err != nil {
		return resp, err
	}
	schema, err := p.Engine.StreamSchema(streamName)
	if err != nil {
		return resp, err
	}
	if _, err := merged.Validate(schema); err != nil {
		return resp, err
	}
	script, err := streamql.GenerateString(merged, schema)
	if err != nil {
		return resp, err
	}
	resp.Script = script

	// Step 3: single access per (user, stream) (§3.4). A request whose
	// merged query is byte-identical to the user's live grant is
	// answered idempotently with the existing handle (it conveys no new
	// information); a *different* query — the reconstruction-attack
	// vector — is rejected.
	if id, handle, existingScript, busy := p.Manager.Grant(user, streamName); busy {
		if existingScript == script {
			resp.QueryID = id
			resp.Handle = handle
			resp.Reused = true
			return resp, nil
		}
		return resp, fmt.Errorf("xacmlplus: user %q already holds query %s on stream %q (single access per stream, §3.4)",
			user, id, streamName)
	}
	sp.End(stageGraph)

	// Step 5: ship to the DSMS, return the handle.
	sp.Begin(stageEngine)
	queryID, handle, err := p.Engine.DeployScript(script)
	sp.End(stageEngine)
	if err != nil {
		return resp, fmt.Errorf("xacmlplus: engine deploy: %w", err)
	}
	if err := p.Manager.RegisterScript(result.PolicyID, user, streamName, queryID, handle, script); err != nil {
		_ = p.Engine.Withdraw(queryID)
		return resp, err
	}
	resp.QueryID = queryID
	resp.Handle = handle
	return resp, nil
}

// Release withdraws a user's live query on a stream and returns its
// id. The grant is dropped even when the engine fails to withdraw the
// query; the error then reports that failure.
func (p *PEP) Release(user, streamName string) (string, error) {
	id, ok := p.Manager.Release(user, streamName)
	if !ok {
		return "", fmt.Errorf("xacmlplus: user %q holds no query on stream %q", user, streamName)
	}
	err := p.Engine.Withdraw(id)
	p.auditEvent(audit.Event{Kind: "release", Subject: user, Resource: streamName, Detail: id})
	return id, err
}

// withdrawGrants stops the engine queries of grants killed by a policy
// change and records one "withdraw" audit event per affected (user,
// stream) grant — the per-subject signal the accountability governor
// scores (internal/governor).
func (p *PEP) withdrawGrants(policyID string, grants []Withdrawn) (ids []string, err error) {
	ids = make([]string, 0, len(grants))
	for _, g := range grants {
		ids = append(ids, g.QueryID)
		if werr := p.Engine.Withdraw(g.QueryID); werr != nil && err == nil {
			err = werr
		}
		p.auditEvent(audit.Event{Kind: "withdraw", Subject: g.User, Resource: g.Stream,
			PolicyID: policyID, Detail: g.QueryID})
	}
	return ids, err
}

// RemovePolicy removes a policy from the PDP and immediately withdraws
// every query graph it spawned (§3.3).
func (p *PEP) RemovePolicy(policyID string) (withdrawn []string, err error) {
	p.PDP.RemovePolicy(policyID)
	ids, err := p.withdrawGrants(policyID, p.Manager.OnPolicyRemovedGrants(policyID))
	p.auditEvent(audit.Event{Kind: "policy-remove", PolicyID: policyID,
		Detail: fmt.Sprintf("withdrew %v", ids)})
	return ids, err
}

// UpdatePolicy replaces a policy and withdraws the graphs spawned by the
// previous version (§3.3 treats update like removal plus re-add).
func (p *PEP) UpdatePolicy(pol *xacml.Policy) (withdrawn []string, err error) {
	ids, err := p.withdrawGrants(pol.PolicyID, p.Manager.OnPolicyRemovedGrants(pol.PolicyID))
	p.PDP.AddPolicy(pol)
	p.auditEvent(audit.Event{Kind: "policy-load", PolicyID: pol.PolicyID,
		Detail: fmt.Sprintf("withdrew %v", ids)})
	return ids, err
}
