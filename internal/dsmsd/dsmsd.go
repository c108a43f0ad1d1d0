// Package dsmsd exposes a dsms.Engine over the socket protocol — the
// reproduction's equivalent of the StreamBase server process the
// paper's data server talks to — and provides the matching client,
// which satisfies xacmlplus.StreamEngine so the PEP can use a remote
// engine exactly like a local one.
//
// A dsmsd is a shard, not a front door: its verbs are the wire form of
// runtime.ShardBackend, and admission (quotas, classes, governor
// demotions) happens only in the runtime in front of it. The port is a
// trusted internal port — any peer can deploy, subscribe or drop a
// stream without reaching the PDP — so bind it to a private interface.
// Every ingested batch is still validated against its stream's schema.
//
// The verb table below is the one place a verb of the protocol is
// declared: its wire name, its request and response types, and whether
// a caller may re-send it after the connection died under it. The
// server registers every verb of the table with serve, and Client and
// the runtime's RemoteBackend send them with Call.
package dsmsd

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/dsms"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/stream"
	"repro/internal/streamql"
	"repro/internal/telemetry"
)

// Verb is one request/response verb of the shard protocol. Retry
// declares that a duplicate is harmless, so a caller whose connection
// died after sending it — the server may or may not have applied it —
// re-sends it on a fresh connection; a verb without Retry surfaces the
// failure instead.
type Verb[Req, Resp any] struct {
	Name  string
	Retry bool
}

// The verb table: every request/response verb of the shard protocol.
// Replication / failover verbs (replicated shard topology): a fronting
// runtime ships a primary stream's accepted tuples to follower dsmsds
// with Replicate, whose reply is the follower's applied position, and
// reads a continuous query's serialized window state off an engine with
// Migrate (a Deploy with State puts it back).
var (
	// A repeat of an applied create reports already_exists.
	CreateStream = Verb[CreateStreamReq, struct{}]{"dsms.create_stream", false}
	// A repeat of an applied drop reports not_found.
	DropStream = Verb[DropStreamReq, struct{}]{"dsms.drop_stream", false}
	Schema     = Verb[SchemaReq, SchemaResp]{"dsms.schema", true}
	// A put is idempotent by name.
	Deploy = Verb[DeployReq, DeployResp]{"dsms.deploy", true}
	// A repeat of an applied withdraw reports not_found.
	Withdraw = Verb[WithdrawReq, struct{}]{"dsms.withdraw", false}
	// A repeat would ingest the batch twice.
	IngestBatch = Verb[IngestBatchReq, struct{}]{"dsms.ingest_batch", false}
	Flush       = Verb[struct{}, struct{}]{"dsms.flush", true}
	ListParts   = Verb[struct{}, ListPartsResp]{"dsms.list_parts", true}
	Ping        = Verb[struct{}, PingResp]{"dsms.ping", true}
	// The follower deduplicates a repeat against Base.
	Replicate = Verb[ReplicateReq, ReplicateResp]{"dsms.replicate", true}
	Migrate   = Verb[MigrateReq, MigrateResp]{"dsms.migrate", true}
)

// The one verb outside the table: dsms.subscribe hijacks its
// connection, which then carries MsgTuple pushes.
const (
	MsgSubscribe = "dsms.subscribe"
	MsgTuple     = "dsms.tuple"
)

// coded maps engine sentinel errors onto structured protocol error
// codes, so remote callers (the sharded runtime's RemoteBackend,
// operator tooling) branch on Message.Code instead of matching error
// text.
func coded(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, dsms.ErrStreamExists):
		return protocol.WithCode(protocol.CodeAlreadyExists, err)
	case errors.Is(err, dsms.ErrUnknownStream), errors.Is(err, dsms.ErrUnknownQuery):
		return protocol.WithCode(protocol.CodeNotFound, err)
	}
	return err
}

// CreateStreamReq registers an input stream.
type CreateStreamReq struct {
	Name   string         `json:"name"`
	Schema *stream.Schema `json:"schema"`
}

// DropStreamReq removes an input stream, withdrawing every query
// reading from it.
type DropStreamReq struct {
	Name string `json:"name"`
}

// SchemaReq asks for a stream's schema.
type SchemaReq struct {
	Name string `json:"name"`
}

// SchemaResp carries the schema.
type SchemaResp struct {
	Schema *stream.Schema `json:"schema"`
}

// DeployReq puts a StreamSQL script as the query named Name, replacing
// the query already running under that name (an empty Name takes the
// next free "qNNNNN"); see dsms.Engine.Put. Stage, when set, deploys
// the compiled query as one shard's part of a cross-shard
// re-aggregation plan (see dsms.StageSpec): it is carried beside the
// script because StreamSQL has no stage syntax — the server applies it
// to the compiled graph before deploying. State, when set, is a
// previously exported window state installed into the fresh query
// (a migration or a durable restore); a staged query's state carries
// its stage operator's windows, so it must be put with the same Stage.
type DeployReq struct {
	Name   string           `json:"name,omitempty"`
	Script string           `json:"script"`
	Stage  *dsms.StageSpec  `json:"stage,omitempty"`
	State  *dsms.QueryState `json:"state,omitempty"`
}

// DeployResp returns the continuous query's id and handle, plus the
// output schema so a fronting runtime can describe the merged stream.
type DeployResp struct {
	QueryID      string         `json:"query_id"`
	Handle       string         `json:"handle"`
	OutputSchema *stream.Schema `json:"output_schema,omitempty"`
}

// WithdrawReq stops a query.
type WithdrawReq struct {
	IDOrHandle string `json:"id_or_handle"`
}

// IngestBatchReq appends a batch of tuples to a stream in one round
// trip; the engine validates the batch against the stream schema and
// admits it under a single pass through its lock.
type IngestBatchReq struct {
	Stream string         `json:"stream"`
	Tuples []stream.Tuple `json:"tuples"`
}

// ListPartsResp names the running continuous queries, sorted.
type ListPartsResp struct {
	Names []string `json:"names"`
}

// ReplicateReq ships a contiguous run of a replicated stream's tuples
// to this follower; the server applies it with dsms.Engine.Replicate.
// Log names the shipper's log and Base is the absolute position in it
// of the tuple *before* Tuples[0], so a retried batch after a lost ack
// is deduplicated instead of double-ingested. Reset declares that the
// tuples between this follower's applied position and Base were
// trimmed from the shipper's bounded log and are permanently lost: the
// position jumps forward to Base instead of the batch being refused.
type ReplicateReq struct {
	Stream string         `json:"stream"`
	Log    uint64         `json:"log"`
	Base   uint64         `json:"base"`
	Reset  bool           `json:"reset,omitempty"`
	Tuples []stream.Tuple `json:"tuples"`
}

// ReplicateResp is the follower's applied position in the request's
// log after the batch, whether the batch was applied or refused.
type ReplicateResp struct {
	Acked uint64 `json:"acked"`
}

// MigrateReq asks for the named query's operator state (window ring,
// incremental sums, deque positions — see dsms.QueryState), so a put
// elsewhere continues its emissions instead of restarting empty.
type MigrateReq struct {
	Export string `json:"export,omitempty"`
}

// MigrateResp carries the exported state.
type MigrateResp struct {
	State *dsms.QueryState `json:"state,omitempty"`
}

// SubscribeReq attaches the connection to a query's output; the server
// pushes MsgTuple frames with the request's ID until the client
// disconnects.
type SubscribeReq struct {
	IDOrHandle string `json:"id_or_handle"`
}

// PingResp answers Ping with the server's boot: a random id minted
// per server life, so a peer can tell a restarted process on the same
// address from the one it knew.
type PingResp struct {
	Boot uint64 `json:"boot"`
}

// Server wraps a dsms.Engine with the socket protocol.
type Server struct {
	Engine *dsms.Engine
	srv    *protocol.Server
	// ConnectDelay simulates the paper's observation that establishing
	// the initial connection to StreamBase takes much longer than
	// subsequent queries; applied once per new deploy-capable client
	// via the first Deploy on a connection.
	ConnectDelay time.Duration
	firstDeploys atomic.Int64
	boundAddr    string
	boot         uint64 // see PingResp
}

// NewServer builds the service around an engine. profile, when non-nil,
// injects simulated network latency on every request/response pair.
func NewServer(engine *dsms.Engine, profile *netsim.Profile) *Server {
	s := &Server{Engine: engine, srv: protocol.NewServer(), boot: rand.Uint64() | 1}
	if profile != nil {
		s.srv.Delay = profile.RoundTrip
	}
	e, srv := engine, s.srv
	serve(srv, CreateStream, func(r CreateStreamReq) (struct{}, error) {
		return struct{}{}, e.CreateStream(r.Name, r.Schema)
	})
	serve(srv, DropStream, func(r DropStreamReq) (struct{}, error) {
		return struct{}{}, e.DropStream(r.Name)
	})
	serve(srv, Schema, func(r SchemaReq) (SchemaResp, error) {
		schema, err := e.StreamSchema(r.Name)
		return SchemaResp{Schema: schema}, err
	})
	serve(srv, Deploy, s.deploy)
	serve(srv, Withdraw, func(r WithdrawReq) (struct{}, error) {
		return struct{}{}, e.Withdraw(r.IDOrHandle)
	})
	serve(srv, IngestBatch, func(r IngestBatchReq) (struct{}, error) {
		return struct{}{}, e.IngestBatch(r.Stream, r.Tuples)
	})
	serve(srv, Flush, func(struct{}) (struct{}, error) {
		e.Flush()
		return struct{}{}, nil
	})
	serve(srv, ListParts, func(struct{}) (ListPartsResp, error) {
		return ListPartsResp{Names: e.Queries()}, nil
	})
	serve(srv, Ping, func(struct{}) (PingResp, error) {
		return PingResp{Boot: s.boot}, nil
	})
	serve(srv, Replicate, func(r ReplicateReq) (ReplicateResp, error) {
		acked, err := e.Replicate(r.Stream, r.Log, r.Base, r.Reset, r.Tuples)
		return ReplicateResp{Acked: acked}, err
	})
	// Migrate serializes a query's window state out (see MigrateReq).
	serve(srv, Migrate, func(r MigrateReq) (MigrateResp, error) {
		st, err := e.ExportQueryState(r.Export)
		return MigrateResp{State: st}, err
	})
	srv.Handle(MsgSubscribe, s.handleSubscribe)
	return s
}

// serve registers fn as the handler of verb v: the request is decoded
// (an undecodable one is a bad_request), and fn's error is coded once.
func serve[Req, Resp any](srv *protocol.Server, v Verb[Req, Resp], fn func(Req) (Resp, error)) {
	srv.Handle(v.Name, func(m *protocol.Message, _ *protocol.Conn) (any, error) {
		req, err := protocol.Decode[Req](m)
		if err != nil {
			return nil, protocol.WithCode(protocol.CodeBadRequest, err)
		}
		resp, err := fn(req)
		if err != nil {
			return nil, coded(err)
		}
		return resp, nil
	})
}

// EnableTelemetry instruments the wrapped engine (ingest/output/window
// counters plus seal/pipeline/push traces sampled every sampleEvery
// ingested tuples; values <= 1 trace every batch) and hooks per-request
// RPC metrics into the socket dispatcher. Call before Listen.
func (s *Server) EnableTelemetry(reg *telemetry.Registry, sampleEvery int) {
	if reg == nil {
		return
	}
	s.Engine.EnableTelemetry(reg, sampleEvery)
	s.srv.Observe = telemetry.RPCObserver(reg)
}

// Listen binds the server; "127.0.0.1:0" picks an ephemeral port.
func (s *Server) Listen(addr string) (string, error) {
	bound, err := s.srv.Listen(addr)
	if err == nil {
		s.boundAddr = bound
	}
	return bound, err
}

// Addr returns the bound listen address (after Listen).
func (s *Server) Addr() string { return s.boundAddr }

// Close shuts the server down (the engine is left to its owner).
func (s *Server) Close() { s.srv.Close() }

// deploy compiles req's script, checks the input declaration it embeds
// against the registered stream, and puts it (see DeployReq).
func (s *Server) deploy(req DeployReq) (DeployResp, error) {
	if d := s.ConnectDelay; d > 0 {
		// Model the slow initial StreamBase connection: the first few
		// deploys pay a start-up cost (§4.2 observes outliers only at
		// the beginning of the request sequences).
		if n := s.firstDeploys.Add(1); n <= 3 {
			time.Sleep(d / time.Duration(n))
		}
	}
	// The input declaration that PEP-generated scripts embed is checked
	// against the registered stream; a stage marks the graph as one
	// shard's staged part.
	c, err := streamql.CompileString(req.Script)
	if err != nil {
		return DeployResp{}, err
	}
	if c.Schema != nil {
		actual, err := s.Engine.StreamSchema(c.Input)
		if err != nil {
			return DeployResp{}, err
		}
		if !actual.Equal(c.Schema) {
			return DeployResp{}, fmt.Errorf("dsmsd: script schema for %q does not match registered stream", c.Input)
		}
	}
	if req.Stage != nil {
		c.Graph.Stage = req.Stage.Clone()
	}
	dep, err := s.Engine.Put(req.Name, c.Graph, req.State)
	if err != nil {
		return DeployResp{}, err
	}
	return DeployResp{QueryID: dep.ID, Handle: dep.Handle, OutputSchema: dep.OutputSchema}, nil
}

// handleSubscribe hijacks the connection: an acknowledging ".ok" frame
// is followed by MsgTuple pushes until the subscription ends or the
// peer hangs up.
func (s *Server) handleSubscribe(m *protocol.Message, conn *protocol.Conn) (any, error) {
	req, err := protocol.Decode[SubscribeReq](m)
	if err != nil {
		return nil, protocol.WithCode(protocol.CodeBadRequest, err)
	}
	sub, err := s.Engine.Subscribe(req.IDOrHandle)
	if err != nil {
		return nil, coded(err)
	}
	ack, err := protocol.Encode(MsgSubscribe+".ok", m.ID, struct{}{})
	if err != nil {
		s.Engine.Unsubscribe(req.IDOrHandle, sub)
		return nil, err
	}
	if err := conn.Send(ack); err != nil {
		s.Engine.Unsubscribe(req.IDOrHandle, sub)
		return nil, protocol.ErrHijacked
	}
	go func() {
		defer s.Engine.Unsubscribe(req.IDOrHandle, sub)
		for {
			var t stream.Tuple
			select {
			case tu, ok := <-sub.C:
				if !ok {
					return
				}
				t = tu
			case <-conn.Done():
				return
			}
			push, err := protocol.Encode(MsgTuple, m.ID, t)
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

// Client talks to a dsmsd server. It implements
// xacmlplus.StreamEngine.
type Client struct {
	rpc *protocol.Client
	// OnTuple receives subscribed tuples (set before Subscribe).
	OnTuple func(stream.Tuple)
}

// Dial connects to a dsmsd server.
func Dial(addr string) (*Client, error) {
	rpc, err := protocol.Dial(addr)
	if err != nil {
		return nil, err
	}
	return newClient(rpc), nil
}

// DialTimeout connects to a dsmsd server, bounding the TCP connect so
// a blackholed address cannot hang the caller for the OS default.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		return Dial(addr)
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return newClient(protocol.NewClient(protocol.NewConn(nc))), nil
}

func newClient(rpc *protocol.Client) *Client {
	c := &Client{rpc: rpc}
	rpc.SetPush(func(m *protocol.Message) {
		if m.Type != MsgTuple || c.OnTuple == nil {
			return
		}
		if t, err := protocol.Decode[stream.Tuple](m); err == nil {
			c.OnTuple(t)
		}
	})
	return c
}

// Close closes the connection.
func (c *Client) Close() error { return c.rpc.Close() }

// SetCallTimeout bounds every subsequent RPC on this client via the
// connection's read/write deadlines (no watchdog goroutine; see
// protocol.Client.SetCallTimeout). A timed-out call kills the
// connection with protocol.ErrClosed.
func (c *Client) SetCallTimeout(d time.Duration) { c.rpc.SetCallTimeout(d) }

// Call sends one request of verb v on c and decodes the response. An
// error the server coded keeps its code (protocol.ErrorCode); a
// connection that died under the call fails it with protocol.ErrClosed,
// and whether the request may then be re-sent is v.Retry.
func Call[Req, Resp any](c *Client, v Verb[Req, Resp], req Req) (Resp, error) {
	return protocol.CallDecode[Resp](c.rpc, v.Name, req)
}

// CreateStream registers an input stream on the engine.
func (c *Client) CreateStream(name string, schema *stream.Schema) error {
	_, err := Call(c, CreateStream, CreateStreamReq{Name: name, Schema: schema})
	return err
}

// StreamSchema implements xacmlplus.StreamEngine.
func (c *Client) StreamSchema(name string) (*stream.Schema, error) {
	resp, err := Call(c, Schema, SchemaReq{Name: name})
	return resp.Schema, err
}

// DeployScript implements xacmlplus.StreamEngine: an unnamed Deploy.
func (c *Client) DeployScript(script string) (string, string, error) {
	resp, err := Call(c, Deploy, DeployReq{Script: script})
	return resp.QueryID, resp.Handle, err
}

// Withdraw implements xacmlplus.StreamEngine.
func (c *Client) Withdraw(idOrHandle string) error {
	_, err := Call(c, Withdraw, WithdrawReq{IDOrHandle: idOrHandle})
	return err
}

// IngestBatchPrevalidated appends a batch of tuples to a remote stream
// in one round trip. The name is historical: the dsmsd validates every
// batch against the stream schema, whoever sends it.
func (c *Client) IngestBatchPrevalidated(streamName string, ts []stream.Tuple) error {
	_, err := Call(c, IngestBatch, IngestBatchReq{Stream: streamName, Tuples: ts})
	return err
}

// Flush blocks until the remote engine's pipelines have quiesced.
func (c *Client) Flush() error {
	_, err := Call(c, Flush, struct{}{})
	return err
}

// Ping checks liveness of the connection and the remote engine, and
// returns the server's boot (see PingResp).
func (c *Client) Ping() (uint64, error) {
	resp, err := Call(c, Ping, struct{}{})
	return resp.Boot, err
}

// Subscribe attaches this client to a query output; tuples arrive via
// OnTuple. One subscription per client connection.
func (c *Client) Subscribe(idOrHandle string) error {
	_, err := c.rpc.Call(MsgSubscribe, SubscribeReq{IDOrHandle: idOrHandle})
	return err
}
