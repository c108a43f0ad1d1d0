// Package client is the user-facing client interface of the eXACML+
// framework (Fig 3(a)): it loads policies, requests data streams with
// optional customised queries, and receives back stream handles or
// NR/PR warnings. It talks to either the proxy or the data server —
// both speak the same protocol.
package client

import (
	"fmt"

	"repro/internal/governor"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

// ErrConnClosed is wrapped by every error the client returns because
// its connection died (server shutdown, network failure, or a local
// Close). Subscribers and publishers can distinguish connection death
// from server-side errors with errors.Is(err, client.ErrConnClosed).
var ErrConnClosed = protocol.ErrClosed

// Client is a connected eXACML+ client.
type Client struct {
	rpc    *protocol.Client
	closed chan struct{}
	// OnTuple receives subscribed stream tuples (set before Subscribe).
	OnTuple func(stream.Tuple)
}

// Dial connects to a data server or proxy address.
func Dial(addr string) (*Client, error) {
	rpc, err := protocol.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{rpc: rpc, closed: make(chan struct{})}
	rpc.SetPush(func(m *protocol.Message) {
		if m.Type != server.MsgStreamTuple || c.OnTuple == nil {
			return
		}
		if t, err := protocol.Decode[stream.Tuple](m); err == nil {
			c.OnTuple(t)
		}
	})
	rpc.SetOnClose(func(error) { close(c.closed) })
	return c, nil
}

// Closed is closed when the connection dies (including via Close),
// letting subscribers stop waiting for further pushed tuples.
func (c *Client) Closed() <-chan struct{} { return c.closed }

// Close closes the connection.
func (c *Client) Close() error { return c.rpc.Close() }

// LoadPolicy uploads a policy document (data-owner operation).
func (c *Client) LoadPolicy(policyXML []byte) (string, error) {
	resp, err := protocol.CallDecode[server.LoadPolicyResp](c.rpc, server.MsgLoadPolicy,
		server.LoadPolicyReq{PolicyXML: string(policyXML)})
	if err != nil {
		return "", err
	}
	return resp.PolicyID, nil
}

// LoadPolicyObject marshals and uploads a policy.
func (c *Client) LoadPolicyObject(p *xacml.Policy) (string, error) {
	data, err := p.Marshal()
	if err != nil {
		return "", err
	}
	return c.LoadPolicy(data)
}

// RemovePolicy removes a policy; the server withdraws all query graphs
// it spawned and returns their ids.
func (c *Client) RemovePolicy(policyID string) ([]string, error) {
	resp, err := protocol.CallDecode[server.RemovePolicyResp](c.rpc, server.MsgRemovePolicy,
		server.RemovePolicyReq{PolicyID: policyID})
	if err != nil {
		return nil, err
	}
	return resp.Withdrawn, nil
}

// RequestAccess asks for a data stream as subject/resource/action with
// an optional customised query, returning the wire response (handle,
// warnings, timings).
func (c *Client) RequestAccess(subject, resource, action string, uq *xacmlplus.UserQuery) (server.AccessResp, error) {
	req := xacml.NewRequest(subject, resource, action)
	reqXML, err := req.Marshal()
	if err != nil {
		return server.AccessResp{}, err
	}
	wire := server.AccessReq{RequestXML: string(reqXML)}
	if uq != nil {
		uqXML, err := uq.Marshal()
		if err != nil {
			return server.AccessResp{}, err
		}
		wire.UserQueryXML = string(uqXML)
	}
	return protocol.CallDecode[server.AccessResp](c.rpc, server.MsgAccess, wire)
}

// RequestAccessXML sends pre-marshalled request and user-query
// documents (the workload driver uses this to replay generated files).
func (c *Client) RequestAccessXML(requestXML, userQueryXML string) (server.AccessResp, error) {
	return protocol.CallDecode[server.AccessResp](c.rpc, server.MsgAccess,
		server.AccessReq{RequestXML: requestXML, UserQueryXML: userQueryXML})
}

// Release gives up the caller's grant on a stream.
func (c *Client) Release(user, streamName string) error {
	_, err := c.rpc.Call(server.MsgRelease, server.ReleaseReq{User: user, Stream: streamName})
	return err
}

// Stats fetches server counters.
func (c *Client) Stats() (server.StatsResp, error) {
	return protocol.CallDecode[server.StatsResp](c.rpc, server.MsgStats, struct{}{})
}

// Publish appends one tuple to a stream through the server's ingest
// runtime (data-owner operation).
func (c *Client) Publish(streamName string, t stream.Tuple) error {
	_, err := c.PublishBatch(streamName, []stream.Tuple{t})
	return err
}

// PublishBatch appends a batch of tuples in one round trip, returning
// how many the server's backpressure policy accepted.
func (c *Client) PublishBatch(streamName string, ts []stream.Tuple) (int, error) {
	resp, err := c.PublishBatchVerdict(streamName, ts)
	if err != nil {
		return 0, err
	}
	return resp.Accepted, nil
}

// PublishBatchVerdict appends a batch of tuples in one round trip and
// returns the server's full admission verdict, including how many
// tuples the stream's quota shed before they reached a shard queue.
func (c *Client) PublishBatchVerdict(streamName string, ts []stream.Tuple) (server.PublishResp, error) {
	return protocol.CallDecode[server.PublishResp](c.rpc, server.MsgPublish,
		server.PublishReq{Stream: streamName, Tuples: ts})
}

// Subscribe attaches this client to a granted stream handle on a
// server with an attached runtime (any exacmld); tuples arrive via
// OnTuple. One subscription per client connection.
func (c *Client) Subscribe(handle string) error {
	_, err := c.rpc.Call(server.MsgSubscribe, server.SubscribeReq{Handle: handle})
	return err
}

// RuntimeStats fetches the server's ingest-runtime snapshot (per-shard
// queue depth, throughput, drops).
func (c *Client) RuntimeStats() (metrics.RuntimeStats, error) {
	resp, err := protocol.CallDecode[server.RuntimeStatsResp](c.rpc, server.MsgRuntimeStats, struct{}{})
	if err != nil {
		return metrics.RuntimeStats{}, err
	}
	return resp.Stats, nil
}

// Reconfigure atomically swaps a registered stream's priority class
// and token-bucket quota on the server without re-registering the
// stream (operator operation). class is "besteffort", "normal" or
// "critical" ("" = normal); rate 0 removes the quota; burst 0 defaults
// to one second of rate. The response reports the configuration
// replaced and the one now in force.
func (c *Client) Reconfigure(streamName, class string, rate float64, burst int) (server.ReconfigureResp, error) {
	return protocol.CallDecode[server.ReconfigureResp](c.rpc, server.MsgReconfigure,
		server.ReconfigureReq{Stream: streamName, Class: class, Rate: rate, Burst: burst})
}

// GovernorStats fetches the accountability governor's snapshot:
// tracked subjects with decayed scores, active demotions, and lifetime
// demotion/restore counters. Fails when the server runs no governor.
func (c *Client) GovernorStats() (governor.Stats, error) {
	resp, err := protocol.CallDecode[server.GovernorStatsResp](c.rpc, server.MsgGovernorStats, struct{}{})
	if err != nil {
		return governor.Stats{}, err
	}
	return resp.Stats, nil
}

// ExpectGranted is a convenience that fails unless a handle was issued.
func ExpectGranted(resp server.AccessResp, err error) (server.AccessResp, error) {
	if err != nil {
		return resp, err
	}
	if !resp.Granted() {
		return resp, fmt.Errorf("client: access not granted (decision=%s verdict=%s warnings=%v)",
			resp.Decision, resp.Verdict, resp.Warnings)
	}
	return resp, nil
}
