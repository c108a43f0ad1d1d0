// Package proxy implements the eXACML+ proxy of Fig 3(a): it sits
// between clients and the data server, forwards requests, and — when
// caching is enabled — serves repeated access requests from its cache
// of stream handles. Unlike the archived-data eXACML proxy, what is
// cached here is not data but stream handles, whose sizes are tiny;
// §4.2 still measures a substantial improvement under the Zipf
// workload.
package proxy

import (
	"crypto/sha256"
	"errors"
	"sync"

	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// errUpstreamDown is the /readyz cause when the upstream connection has
// died.
var errUpstreamDown = errors.New("proxy: upstream connection down")

// Proxy forwards eXACML+ requests to the upstream data server.
type Proxy struct {
	upstream *protocol.Client
	srv      *protocol.Server

	mu      sync.Mutex
	caching bool
	cache   map[cacheKey]server.AccessResp
	byQuery map[string][]cacheKey // query id -> keys of the cached answers naming it
	// gen counts the releases and policy changes that passed through. A
	// miss caches its answer only if gen has not moved since before its
	// upstream call: one that did may have withdrawn the very query the
	// answer names before the answer was indexed.
	gen       uint64
	hits      uint64
	misses    uint64
	evictions [len(evictCauses)]uint64
}

// Eviction causes, indexing Proxy.evictions and evictCauses.
const (
	evictRelease = iota
	evictPolicy
)

// evictCauses labels exacml_proxy_cache_evictions_total{cause}.
var evictCauses = [...]string{"release", "policy"}

// New connects to the upstream data server. profile, when non-nil,
// injects simulated client↔proxy latency per request/response pair.
func New(upstreamAddr string, profile *netsim.Profile) (*Proxy, error) {
	up, err := protocol.Dial(upstreamAddr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		upstream: up,
		srv:      protocol.NewServer(),
		cache:    map[cacheKey]server.AccessResp{},
		byQuery:  map[string][]cacheKey{},
	}
	if profile != nil {
		p.srv.Delay = profile.RoundTrip
	}
	p.srv.Handle(server.MsgAccess, p.handleAccess)
	p.srv.Handle(server.MsgLoadPolicy, p.withdrawing(server.MsgLoadPolicy, evictPolicy))
	p.srv.Handle(server.MsgRemovePolicy, p.withdrawing(server.MsgRemovePolicy, evictPolicy))
	p.srv.Handle(server.MsgRelease, p.withdrawing(server.MsgRelease, evictRelease))
	p.srv.Handle(server.MsgStats, p.forward(server.MsgStats))
	return p, nil
}

// SetCaching toggles the handle cache (Fig 6(b) compares cache on/off).
func (p *Proxy) SetCaching(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.caching = on
	if !on {
		p.gen++
		clear(p.cache)
		clear(p.byQuery)
	}
}

// Stats reports cache hits and misses.
func (p *Proxy) Stats() (hits, misses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// EnableTelemetry exports the proxy's cache counters on reg and hooks
// per-request RPC metrics (exacml_rpc_requests_total{type,status},
// exacml_rpc_seconds{type}) into the client-facing server.
func (p *Proxy) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	p.srv.Observe = telemetry.RPCObserver(reg)
	reg.RegisterCollector(func(g *telemetry.Gather) {
		hits, misses := p.Stats()
		p.mu.Lock()
		size := len(p.cache)
		caching := p.caching
		evictions := p.evictions
		p.mu.Unlock()
		g.Counter("exacml_proxy_cache_hits_total",
			"Access requests served from the handle cache.", hits)
		g.Counter("exacml_proxy_cache_misses_total",
			"Access requests that missed the handle cache.", misses)
		for i, cause := range evictCauses {
			g.Counter("exacml_proxy_cache_evictions_total",
				"Cached handles dropped because their query was withdrawn, by the release or policy change that withdrew it.",
				evictions[i], telemetry.L("cause", cause))
		}
		g.Gauge("exacml_proxy_cache_entries",
			"Handles currently cached.", float64(size))
		on := 0.0
		if caching {
			on = 1
		}
		g.Gauge("exacml_proxy_caching_enabled",
			"Whether the handle cache is enabled (1) or bypassed (0).", on)
	})
}

// Ready reports nil while the upstream connection is alive; the ops
// listener's /readyz endpoint is wired to it.
func (p *Proxy) Ready() error {
	if !p.upstream.Alive() {
		return errUpstreamDown
	}
	return nil
}

// Listen binds the proxy's client-facing listener.
func (p *Proxy) Listen(addr string) (string, error) { return p.srv.Listen(addr) }

// Close shuts down the proxy.
func (p *Proxy) Close() {
	p.srv.Close()
	_ = p.upstream.Close()
}

// forward relays a message type verbatim.
func (p *Proxy) forward(typ string) protocol.Handler {
	return func(m *protocol.Message, _ *protocol.Conn) (any, error) {
		resp, err := p.upstream.Call(typ, m.Payload)
		if err != nil {
			return nil, err
		}
		return resp.Payload, nil
	}
}

// cacheKey identifies an access request by its two documents.
type cacheKey [sha256.Size]byte

func keyOf(req server.AccessReq) cacheKey {
	return sha256.Sum256([]byte(req.RequestXML + "\x00" + req.UserQueryXML))
}

// handleAccess answers a request from the cache when an identical one
// was granted and its query is still live, and forwards it otherwise.
func (p *Proxy) handleAccess(m *protocol.Message, _ *protocol.Conn) (any, error) {
	req, err := protocol.Decode[server.AccessReq](m)
	if err != nil {
		return nil, err
	}
	key := keyOf(req)
	p.mu.Lock()
	caching, gen := p.caching, p.gen
	if caching {
		if resp, ok := p.cache[key]; ok {
			p.hits++
			p.mu.Unlock()
			resp.Reused = true
			return resp, nil
		}
		p.misses++
	}
	p.mu.Unlock()

	raw, err := p.upstream.Call(server.MsgAccess, m.Payload)
	if err != nil {
		return nil, err
	}
	resp, err := protocol.Decode[server.AccessResp](raw)
	if err != nil {
		return nil, err
	}
	if caching && resp.Granted() {
		p.mu.Lock()
		// Of two misses for one key the first answer stays, so each key
		// is listed under exactly the query its entry names.
		if _, dup := p.cache[key]; p.caching && p.gen == gen && !dup {
			p.cache[key] = resp
			p.byQuery[resp.QueryID] = append(p.byQuery[resp.QueryID], key)
		}
		p.mu.Unlock()
	}
	return resp, nil
}

// withdrawnResp is the part of server.ReleaseResp, LoadPolicyResp and
// RemovePolicyResp the proxy reads: the query ids withdrawn.
type withdrawnResp struct {
	Withdrawn []string `json:"withdrawn"`
}

// withdrawing forwards a release or policy change and then evicts
// exactly the cached answers naming a query it withdrew, so §3.3's
// immediate revocation holds at the proxy and every other entry stays
// warm. When the upstream call fails the proxy cannot tell what was
// withdrawn, and drops every entry.
func (p *Proxy) withdrawing(typ string, cause int) protocol.Handler {
	return func(m *protocol.Message, _ *protocol.Conn) (any, error) {
		raw, err := p.upstream.Call(typ, m.Payload)
		var resp withdrawnResp
		if err == nil {
			resp, err = protocol.Decode[withdrawnResp](raw)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		p.gen++
		if err != nil {
			p.evictions[cause] += uint64(len(p.cache))
			clear(p.cache)
			clear(p.byQuery)
			return nil, err
		}
		for _, id := range resp.Withdrawn {
			for _, key := range p.byQuery[id] {
				delete(p.cache, key)
				p.evictions[cause]++
			}
			delete(p.byQuery, id)
		}
		return raw.Payload, nil
	}
}
