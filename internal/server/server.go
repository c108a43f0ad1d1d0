// Package server implements the eXACML+ data server: the cloud-side
// entity that owns the PDP (policy store), the PEP and the query-graph
// manager, and answers socket requests from clients and proxies. It is
// the "data server / XACML+ instance" box of Fig 3(a).
package server

import (
	"fmt"
	"time"

	"repro/internal/governor"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

// Message types of the eXACML+ service.
const (
	MsgLoadPolicy    = "exacml.load_policy"
	MsgRemovePolicy  = "exacml.remove_policy"
	MsgAccess        = "exacml.access"
	MsgRelease       = "exacml.release"
	MsgStats         = "exacml.stats"
	MsgPublish       = "exacml.publish"
	MsgRuntimeStats  = "exacml.runtime_stats"
	MsgSubscribe     = "exacml.subscribe"
	MsgStreamTuple   = "exacml.tuple"
	MsgReconfigure   = "exacml.reconfigure"
	MsgGovernorStats = "exacml.governor_stats"
)

// LoadPolicyReq carries one policy XML document.
type LoadPolicyReq struct {
	PolicyXML string `json:"policy_xml"`
}

// LoadPolicyResp acknowledges with the policy id and lists the query
// ids withdrawn because a same-id policy was replaced.
type LoadPolicyResp struct {
	PolicyID  string   `json:"policy_id"`
	Withdrawn []string `json:"withdrawn"`
}

// RemovePolicyReq removes a policy by id; all query graphs spawned from
// it are withdrawn from the DSMS (§3.3).
type RemovePolicyReq struct {
	PolicyID string `json:"policy_id"`
}

// RemovePolicyResp lists the withdrawn query ids.
type RemovePolicyResp struct {
	Withdrawn []string `json:"withdrawn"`
}

// AccessReq carries the XACML request document and the optional user
// query document (Fig 4(a)).
type AccessReq struct {
	RequestXML   string `json:"request_xml"`
	UserQueryXML string `json:"user_query_xml,omitempty"`
}

// AccessResp mirrors xacmlplus.AccessResponse over the wire, with
// nanosecond phase timings for the Fig 7 breakdown.
type AccessResp struct {
	Decision    string   `json:"decision"`
	PolicyID    string   `json:"policy_id,omitempty"`
	Verdict     string   `json:"verdict"`
	Warnings    []string `json:"warnings,omitempty"`
	QueryID     string   `json:"query_id,omitempty"`
	Handle      string   `json:"handle,omitempty"`
	Script      string   `json:"script,omitempty"`
	Reused      bool     `json:"reused,omitempty"`
	PDPNanos    int64    `json:"pdp_nanos"`
	GraphNanos  int64    `json:"graph_nanos"`
	EngineNanos int64    `json:"engine_nanos"`
}

// Granted reports whether a handle was issued.
func (r AccessResp) Granted() bool { return r.Handle != "" }

// ReleaseReq releases a user's grant on a stream.
type ReleaseReq struct {
	User   string `json:"user"`
	Stream string `json:"stream"`
}

// ReleaseResp lists the query id the release withdrew.
type ReleaseResp struct {
	Withdrawn []string `json:"withdrawn"`
}

// StatsResp reports server counters.
type StatsResp struct {
	Policies     int `json:"policies"`
	ActiveGrants int `json:"active_grants"`
}

// PublishReq appends a batch of tuples to a registered stream through
// the server's ingest runtime (data-owner operation).
type PublishReq struct {
	Stream string         `json:"stream"`
	Tuples []stream.Tuple `json:"tuples"`
}

// PublishResp reports the admission verdict: how many tuples were
// offered, how many the stream's quota shed before reaching a shard,
// and how many the backpressure policy accepted into shard queues.
type PublishResp struct {
	Offered  int `json:"offered"`
	Accepted int `json:"accepted"`
	Shed     int `json:"shed,omitempty"`
}

// RuntimeStatsResp carries an ingest-runtime snapshot.
type RuntimeStatsResp struct {
	Stats metrics.RuntimeStats `json:"stats"`
}

// StreamConfigWire is a stream's admission configuration on the wire.
type StreamConfigWire struct {
	Class string  `json:"class"`
	Rate  float64 `json:"rate"`
	Burst int     `json:"burst,omitempty"`
}

// toWireConfig converts a runtime config to its wire form.
func toWireConfig(cfg runtime.StreamConfig) StreamConfigWire {
	return StreamConfigWire{Class: cfg.Class.String(), Rate: cfg.Rate, Burst: cfg.Burst}
}

// ReconfigureReq atomically swaps a registered stream's priority class
// and token-bucket quota without re-registering it (operator
// operation; the governor performs the same swap autonomously). An
// empty Class keeps "normal"; Rate 0 removes the quota.
type ReconfigureReq struct {
	Stream string  `json:"stream"`
	Class  string  `json:"class,omitempty"`
	Rate   float64 `json:"rate,omitempty"`
	Burst  int     `json:"burst,omitempty"`
}

// ReconfigureResp reports the configuration swap: what the stream ran
// under before, and what is now in force.
type ReconfigureResp struct {
	Stream string           `json:"stream"`
	Old    StreamConfigWire `json:"old"`
	New    StreamConfigWire `json:"new"`
}

// GovernorStatsResp carries a governor snapshot.
type GovernorStatsResp struct {
	Stats governor.Stats `json:"stats"`
}

// SubscribeReq attaches the connection to a granted stream handle; the
// server pushes MsgStreamTuple frames with the request's ID until the
// client disconnects.
type SubscribeReq struct {
	Handle string `json:"handle"`
}

// Publisher is the ingest plane a data server can front: the sharded
// runtime implements it; a nil publisher leaves the publish, subscribe
// and reconfigure paths disabled (the classic deployment where data
// owners and consumers talk to dsmsd directly).
type Publisher interface {
	PublishBatchVerdict(stream string, ts []stream.Tuple) (runtime.PublishVerdict, error)
	Stats() metrics.RuntimeStats
	Subscribe(idOrHandle string) (*runtime.Subscription, error)
	StreamAdmission(stream string) (runtime.StreamConfig, error)
	Reconfigure(stream string, cfg runtime.StreamConfig) (runtime.StreamConfig, error)
}

// Server is the data server.
type Server struct {
	PEP *xacmlplus.PEP
	pub Publisher
	gov *governor.Governor
	srv *protocol.Server
}

// New builds a data server around a PEP. profile, when non-nil, injects
// simulated network latency per request/response pair.
func New(pep *xacmlplus.PEP, profile *netsim.Profile) *Server {
	s := &Server{PEP: pep, srv: protocol.NewServer()}
	if profile != nil {
		s.srv.Delay = profile.RoundTrip
	}
	s.srv.Handle(MsgLoadPolicy, s.handleLoadPolicy)
	s.srv.Handle(MsgRemovePolicy, s.handleRemovePolicy)
	s.srv.Handle(MsgAccess, s.handleAccess)
	s.srv.Handle(MsgRelease, s.handleRelease)
	s.srv.Handle(MsgStats, s.handleStats)
	s.srv.Handle(MsgPublish, s.handlePublish)
	s.srv.Handle(MsgRuntimeStats, s.handleRuntimeStats)
	s.srv.Handle(MsgSubscribe, s.handleSubscribe)
	s.srv.Handle(MsgReconfigure, s.handleReconfigure)
	s.srv.Handle(MsgGovernorStats, s.handleGovernorStats)
	return s
}

// AttachPublisher routes the server's publish path through an ingest
// runtime; call before Listen.
func (s *Server) AttachPublisher(p Publisher) { s.pub = p }

// AttachGovernor exposes a running accountability governor over
// MsgGovernorStats; call before Listen.
func (s *Server) AttachGovernor(g *governor.Governor) { s.gov = g }

// EnableTelemetry hooks per-request RPC metrics
// (exacml_rpc_requests_total{type,status}, exacml_rpc_seconds{type})
// into the server's protocol dispatcher.
func (s *Server) EnableTelemetry(reg *telemetry.Registry) {
	s.srv.Observe = telemetry.RPCObserver(reg)
}

// Listen binds the server.
func (s *Server) Listen(addr string) (string, error) { return s.srv.Listen(addr) }

// Close shuts the server down.
func (s *Server) Close() { s.srv.Close() }

func (s *Server) handleLoadPolicy(m *protocol.Message, _ *protocol.Conn) (any, error) {
	req, err := protocol.Decode[LoadPolicyReq](m)
	if err != nil {
		return nil, err
	}
	// Loading replaces same-id policies; replacement withdraws the old
	// version's graphs (§3.3).
	pol, err := xacml.ParsePolicy([]byte(req.PolicyXML))
	if err != nil {
		return nil, err
	}
	withdrawn, err := s.PEP.UpdatePolicy(pol)
	if err != nil {
		return nil, err
	}
	return LoadPolicyResp{PolicyID: pol.PolicyID, Withdrawn: withdrawn}, nil
}

func (s *Server) handleRemovePolicy(m *protocol.Message, _ *protocol.Conn) (any, error) {
	req, err := protocol.Decode[RemovePolicyReq](m)
	if err != nil {
		return nil, err
	}
	withdrawn, err := s.PEP.RemovePolicy(req.PolicyID)
	if err != nil {
		return nil, err
	}
	return RemovePolicyResp{Withdrawn: withdrawn}, nil
}

func (s *Server) handleAccess(m *protocol.Message, _ *protocol.Conn) (any, error) {
	req, err := protocol.Decode[AccessReq](m)
	if err != nil {
		return nil, err
	}
	xreq, err := xacml.ParseRequest([]byte(req.RequestXML))
	if err != nil {
		return nil, err
	}
	var uq *xacmlplus.UserQuery
	if req.UserQueryXML != "" {
		uq, err = xacmlplus.ParseUserQuery([]byte(req.UserQueryXML))
		if err != nil {
			return nil, err
		}
	}
	resp, err := s.PEP.HandleRequest(xreq, uq)
	if err != nil {
		return nil, err
	}
	return ToWire(resp), nil
}

// ToWire converts a PEP response to its wire form.
func ToWire(resp *xacmlplus.AccessResponse) AccessResp {
	out := AccessResp{
		Decision:    resp.Decision.String(),
		PolicyID:    resp.PolicyID,
		Verdict:     resp.Verdict.String(),
		QueryID:     resp.QueryID,
		Handle:      resp.Handle,
		Script:      resp.Script,
		Reused:      resp.Reused,
		PDPNanos:    resp.Timings.PDP.Nanoseconds(),
		GraphNanos:  resp.Timings.QueryGraph.Nanoseconds(),
		EngineNanos: resp.Timings.Engine.Nanoseconds(),
	}
	for _, w := range resp.Warnings {
		out.Warnings = append(out.Warnings, w.String())
	}
	return out
}

// handleRelease withdraws the caller's grant and names the withdrawn
// query, so a proxy in front evicts exactly the cached answers that
// carried it.
func (s *Server) handleRelease(m *protocol.Message, _ *protocol.Conn) (any, error) {
	req, err := protocol.Decode[ReleaseReq](m)
	if err != nil {
		return nil, err
	}
	id, err := s.PEP.Release(req.User, req.Stream)
	if err != nil {
		return nil, err
	}
	return ReleaseResp{Withdrawn: []string{id}}, nil
}

func (s *Server) handleStats(_ *protocol.Message, _ *protocol.Conn) (any, error) {
	return StatsResp{
		Policies:     s.PEP.PDP.Count(),
		ActiveGrants: s.PEP.Manager.ActiveCount(),
	}, nil
}

func (s *Server) handlePublish(m *protocol.Message, _ *protocol.Conn) (any, error) {
	if s.pub == nil {
		return nil, fmt.Errorf("server: no ingest runtime attached")
	}
	req, err := protocol.Decode[PublishReq](m)
	if err != nil {
		return nil, err
	}
	v, err := s.pub.PublishBatchVerdict(req.Stream, req.Tuples)
	if err != nil {
		return nil, err
	}
	return PublishResp{Offered: v.Offered, Accepted: v.Accepted, Shed: v.Shed}, nil
}

func (s *Server) handleRuntimeStats(_ *protocol.Message, _ *protocol.Conn) (any, error) {
	if s.pub == nil {
		return nil, fmt.Errorf("server: no ingest runtime attached")
	}
	return RuntimeStatsResp{Stats: s.pub.Stats()}, nil
}

func (s *Server) handleReconfigure(m *protocol.Message, _ *protocol.Conn) (any, error) {
	if s.pub == nil {
		return nil, fmt.Errorf("server: no ingest runtime attached")
	}
	req, err := protocol.Decode[ReconfigureReq](m)
	if err != nil {
		return nil, err
	}
	if req.Stream == "" {
		return nil, protocol.WithCode(protocol.CodeBadRequest, fmt.Errorf("server: reconfigure needs a stream"))
	}
	class, err := runtime.ParseClass(req.Class)
	if err != nil {
		return nil, protocol.WithCode(protocol.CodeBadRequest, err)
	}
	old, err := s.pub.Reconfigure(req.Stream, runtime.StreamConfig{Class: class, Rate: req.Rate, Burst: req.Burst})
	if err != nil {
		return nil, err
	}
	cur, err := s.pub.StreamAdmission(req.Stream)
	if err != nil {
		return nil, err
	}
	return ReconfigureResp{Stream: req.Stream, Old: toWireConfig(old), New: toWireConfig(cur)}, nil
}

func (s *Server) handleGovernorStats(_ *protocol.Message, _ *protocol.Conn) (any, error) {
	if s.gov == nil {
		return nil, fmt.Errorf("server: no governor running")
	}
	return GovernorStatsResp{Stats: s.gov.Stats()}, nil
}

// handleSubscribe hijacks the connection, mirroring the dsmsd server:
// an acknowledging ".ok" frame is followed by MsgStreamTuple pushes
// until the subscription or connection dies. This is how consumers
// reach granted handles when the server has a runtime attached (every
// exacmld does; a hand-built server.New without one refuses).
func (s *Server) handleSubscribe(m *protocol.Message, conn *protocol.Conn) (any, error) {
	if s.pub == nil {
		return nil, fmt.Errorf("server: no ingest runtime attached")
	}
	req, err := protocol.Decode[SubscribeReq](m)
	if err != nil {
		return nil, err
	}
	sub, err := s.pub.Subscribe(req.Handle)
	if err != nil {
		return nil, err
	}
	ack, err := protocol.Encode(MsgSubscribe+".ok", m.ID, struct{}{})
	if err != nil {
		sub.Close()
		return nil, err
	}
	if err := conn.Send(ack); err != nil {
		sub.Close()
		return nil, protocol.ErrHijacked
	}
	go func() {
		defer sub.Close()
		for t := range sub.C {
			push, err := protocol.Encode(MsgStreamTuple, m.ID, t)
			if err != nil {
				return
			}
			if err := conn.Send(push); err != nil {
				return
			}
		}
	}()
	return nil, protocol.ErrHijacked
}

// Timings reconstructs the duration breakdown from a wire response.
func (r AccessResp) Timings() xacmlplus.Timings {
	return xacmlplus.Timings{
		PDP:        time.Duration(r.PDPNanos),
		QueryGraph: time.Duration(r.GraphNanos),
		Engine:     time.Duration(r.EngineNanos),
	}
}
