package runtime

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsms"
	"repro/internal/dsmsd"
	"repro/internal/protocol"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Remote backend defaults.
const (
	DefaultMaxReconnects    = 3
	DefaultReconnectBackoff = 50 * time.Millisecond
	DefaultHealthInterval   = time.Second
	DefaultCallTimeout      = 10 * time.Second
)

// RemoteOptions tunes a RemoteBackend.
type RemoteOptions struct {
	// MaxReconnects bounds the dial attempts made per connection
	// (re)establishment before the backend is declared down (default 3).
	MaxReconnects int
	// ReconnectBackoff is the pause before the first redial attempt; it
	// doubles per attempt (default 50ms).
	ReconnectBackoff time.Duration
	// HealthInterval is the period of the background liveness probe
	// (default 1s; negative disables the probe).
	HealthInterval time.Duration
	// CallTimeout bounds each RPC and each TCP connect (default 10s;
	// negative disables). RPCs are bounded with the connection's
	// read/write deadlines (protocol.Client.SetCallTimeout) — no
	// watchdog goroutine per call — so on expiry the connection dies
	// with protocol.ErrClosed, which both unblocks the in-flight call
	// and routes a hung-but-connected dsmsd into the same
	// reconnect/down machinery as a closed one.
	CallTimeout time.Duration
	// OnHealthEvent observes the shard's health transitions, called
	// after the owning runtime applied each, in order, on the shard's
	// health goroutine: "dial" (per connect attempt; err is the previous
	// attempt's failure), "connected", "reconnected" (the same dsmsd
	// process), "down" (budget spent, a restarted process reached, or
	// FailShard) and "readopted" (answered again, or ReadoptShard; err
	// is the re-adoption's). It must not call FailShard or ReadoptShard.
	OnHealthEvent func(event string, err error)
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.MaxReconnects <= 0 {
		o.MaxReconnects = DefaultMaxReconnects
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = DefaultReconnectBackoff
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = DefaultHealthInterval
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = DefaultCallTimeout
	}
	return o
}

// RemoteBackend implements ShardBackend over a dsmsd process reached
// through internal/protocol. The connection is established lazily and
// re-established on failure with a bounded, backed-off retry budget; a
// background probe pings the server so failures are detected even
// between publishes. Once the budget is exhausted — or a redial reaches
// a restarted process, told apart by its boot (dsmsd.PingResp) — the
// backend is declared down: every subsequent operation fails fast with
// an error wrapping protocol.ErrClosed (client.ErrConnClosed).
//
// Down is sticky but not terminal: the probe keeps redialing while
// down, and a successful dial — the dsmsd was restarted, or a
// partition healed — re-adopts the process: the down state clears and
// operations flow again. With the probe disabled (HealthInterval < 0)
// nothing redials, and down is terminal.
//
// Every transition is posted under the backend's lock, so in the order
// the state changed, to the owning runtime's health stream for the
// shard, which applies them (see failover.go).
//
// Each wire method is one call of a verb of dsmsd's verb table, the one
// place a verb is declared, with its types and whether it is retried
// on connection death; no method here chooses that itself.
type RemoteBackend struct {
	addr string
	opts RemoteOptions

	mu      sync.Mutex
	cli     *dsmsd.Client
	boot    uint64 // the boot of the process last connected to; 0 before any
	downErr error
	closed  bool
	subs    map[*protocol.Client]struct{} // live dedicated subscription connections
	post    func(event string, err error) // the owning runtime's health stream; nil until wired

	healthy   atomic.Bool
	probeStop chan struct{}
	probeDone chan struct{}
}

// NewRemoteBackend builds a backend for the dsmsd process at addr. No
// connection is made until the first operation (or probe tick).
func NewRemoteBackend(addr string, opts RemoteOptions) *RemoteBackend {
	b := &RemoteBackend{
		addr:      addr,
		opts:      opts.withDefaults(),
		subs:      map[*protocol.Client]struct{}{},
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	b.healthy.Store(true)
	if b.opts.HealthInterval > 0 {
		go b.probe()
	} else {
		close(b.probeDone)
	}
	return b
}

// Addr returns the dsmsd address this backend fronts.
func (b *RemoteBackend) Addr() string { return b.addr }

// Kind implements ShardBackend.
func (b *RemoteBackend) Kind() string { return fmt.Sprintf("remote(%s)", b.addr) }

// Healthy implements ShardBackend: false once the backend has been
// declared down.
func (b *RemoteBackend) Healthy() bool { return b.healthy.Load() }

// connErr wraps a transport-level failure so errors.Is(err,
// client.ErrConnClosed) holds for callers regardless of which layer
// produced it.
func (b *RemoteBackend) connErr(format string, err error) error {
	if errors.Is(err, protocol.ErrClosed) {
		return fmt.Errorf(format, b.addr, err)
	}
	return fmt.Errorf(format, b.addr, fmt.Errorf("%w: %v", protocol.ErrClosed, err))
}

// dial connects to the dsmsd and reads its boot.
func (b *RemoteBackend) dial() (*dsmsd.Client, uint64, error) {
	cli, err := dsmsd.DialTimeout(b.addr, b.opts.CallTimeout)
	if err != nil {
		return nil, 0, err
	}
	if b.opts.CallTimeout > 0 {
		cli.SetCallTimeout(b.opts.CallTimeout)
	}
	boot, err := cli.Ping()
	if err != nil {
		_ = cli.Close()
		return nil, 0, err
	}
	return cli, boot, nil
}

// client returns the live connection, dialing with the bounded retry
// budget when necessary. Exhausting the budget, or reaching a
// restarted process, declares the backend down.
func (b *RemoteBackend) client() (*dsmsd.Client, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.downErr != nil {
		return nil, b.downErr
	}
	if b.closed {
		return nil, b.connErr("runtime: remote shard %s: %w", errors.New("backend closed"))
	}
	if b.cli != nil {
		return b.cli, nil
	}
	var lastErr error
	backoff := b.opts.ReconnectBackoff
	for attempt := 0; attempt < b.opts.MaxReconnects; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		b.healthEvent("dial", lastErr)
		cli, boot, err := b.dial()
		if err != nil {
			lastErr = err
			continue
		}
		if b.boot != 0 && boot != b.boot {
			// The process the shard's state lived on is gone: the shard
			// is down, and comes back through re-adoption.
			_ = cli.Close()
			b.markDownLocked(b.connErr("runtime: remote shard %s: %w", errors.New("dsmsd restarted")))
			return nil, b.downErr
		}
		if b.boot != 0 {
			b.healthEvent("reconnected", nil)
		} else {
			b.healthEvent("connected", nil)
		}
		b.cli, b.boot = cli, boot
		return cli, nil
	}
	b.markDownLocked(b.connErr("runtime: remote shard %s unreachable: %w", lastErr))
	return nil, b.downErr
}

// dropClient discards a connection observed dead so the next operation
// redials.
func (b *RemoteBackend) dropClient(cli *dsmsd.Client) {
	b.mu.Lock()
	if b.cli == cli {
		b.cli = nil
	}
	b.mu.Unlock()
	_ = cli.Close()
}

// setPost wires the backend's transitions to its shard's health stream.
func (b *RemoteBackend) setPost(post func(event string, err error)) {
	b.mu.Lock()
	b.post = post
	b.mu.Unlock()
}

// healthEvent posts a transition; the caller holds b.mu, so posts are
// in the order the state changed.
func (b *RemoteBackend) healthEvent(event string, err error) {
	if b.post != nil {
		b.post(event, err)
	}
}

// markDownLocked records the down error and posts "down"; the caller
// holds b.mu. The probe keeps redialing while down — see tryReadopt.
func (b *RemoteBackend) markDownLocked(err error) {
	b.downErr = err
	b.healthy.Store(false)
	b.healthEvent("down", err)
}

// readoptFailed puts the backend down again when the runtime could not
// restore the shard's state on the re-adopted process, so the next
// probe tick retries the whole re-adoption.
func (b *RemoteBackend) readoptFailed(err error) {
	b.mu.Lock()
	if !b.closed && b.downErr == nil {
		b.markDownLocked(b.connErr("runtime: remote shard %s: re-adoption failed: %w", err))
	}
	b.mu.Unlock()
}

// tryReadopt attempts one redial of a downed backend. On success the
// down state clears and "readopted" is posted.
func (b *RemoteBackend) tryReadopt() {
	cli, boot, err := b.dial()
	if err != nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.downErr == nil {
		_ = cli.Close()
		return
	}
	if b.cli != nil {
		_ = b.cli.Close()
	}
	b.cli, b.boot, b.downErr = cli, boot, nil
	b.healthy.Store(true)
	b.healthEvent("readopted", nil)
}

// call runs one request of verb v against the backend. A call whose
// connection died under it drops that connection, so the next
// operation redials (with the bounded budget that eventually declares
// the backend down). The server may already have applied the request,
// so it is re-issued once on a fresh connection only when v.Retry
// declares a duplicate harmless; otherwise the error is surfaced, and
// accounted by the caller. The call timeout rides on the connection's
// read/write deadlines (set at dial), so a stalled dsmsd fails the call
// with protocol.ErrClosed without any watchdog goroutine.
func call[Req, Resp any](b *RemoteBackend, v dsmsd.Verb[Req, Resp], req Req) (Resp, error) {
	for try := 0; ; try++ {
		cli, err := b.client()
		if err != nil {
			var zero Resp
			return zero, err
		}
		resp, err := dsmsd.Call(cli, v, req)
		if err == nil || !errors.Is(err, protocol.ErrClosed) {
			return resp, err
		}
		b.dropClient(cli)
		if !v.Retry || try > 0 {
			return resp, b.connErr("runtime: remote shard %s: %w", err)
		}
	}
}

// probe pings the server every HealthInterval so a dead dsmsd is
// declared down even while no publishes flow.
// While the backend is down the probe becomes the re-adoption loop:
// each tick attempts one redial, and a success clears the down state
// (see tryReadopt).
func (b *RemoteBackend) probe() {
	defer close(b.probeDone)
	t := time.NewTicker(b.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-b.probeStop:
			return
		case <-t.C:
			b.mu.Lock()
			virgin := b.boot == 0 && b.downErr == nil
			down := b.downErr != nil
			b.mu.Unlock()
			if down {
				b.tryReadopt()
				continue
			}
			if virgin {
				// Never successfully dialed: leave the first connection
				// to the first real operation so an unused backend does
				// not burn its reconnect budget at startup. Once it HAS
				// connected, the probe keeps watching even with the
				// connection dropped — that is how a dead dsmsd is
				// declared down while no publishes flow.
				continue
			}
			_, _ = call(b, dsmsd.Ping, struct{}{})
		}
	}
}

// CreateStream implements ShardBackend. A stream that already exists
// on the dsmsd with an equal schema is adopted rather than refused:
// the remote process outlives its runtime (a restarted data server
// re-registers the same streams against dsmsd state it created in a
// previous life), and an at-most-once retry after a connection death
// may also find its own earlier attempt applied. The collision is
// recognized by the structured already_exists code the dsmsd attaches
// (protocol.ErrorCode), not by matching error text.
func (b *RemoteBackend) CreateStream(name string, schema *stream.Schema) error {
	_, err := call(b, dsmsd.CreateStream, dsmsd.CreateStreamReq{Name: name, Schema: schema})
	if err == nil || protocol.ErrorCode(err) != protocol.CodeAlreadyExists {
		return err
	}
	existing, serr := b.StreamSchema(name)
	if serr == nil && existing.Equal(schema) {
		return nil
	}
	return err
}

// DropStream implements ShardBackend.
func (b *RemoteBackend) DropStream(name string) error {
	_, err := call(b, dsmsd.DropStream, dsmsd.DropStreamReq{Name: name})
	return err
}

// StreamSchema implements ShardBackend.
func (b *RemoteBackend) StreamSchema(name string) (*stream.Schema, error) {
	resp, err := call(b, dsmsd.Schema, dsmsd.SchemaReq{Name: name})
	return resp.Schema, err
}

// IngestBatch implements ShardBackend. dsmsd.IngestBatch is not
// retried: a batch whose connection died mid-call is reported as an
// error, which the shard worker counts. The tuples are serialized onto
// the wire before the call returns, and the span records the whole RPC
// as one StageBackend interval (the dsmsd's engine stages are not
// visible from here).
func (b *RemoteBackend) IngestBatch(streamName string, ts []stream.Tuple, sp *telemetry.Span) error {
	sp.Begin(telemetry.StageBackend)
	_, err := call(b, dsmsd.IngestBatch, dsmsd.IngestBatchReq{Stream: streamName, Tuples: ts})
	sp.End(telemetry.StageBackend)
	sp.Finish()
	return err
}

// PutPart implements ShardBackend. Remote deployment needs the script
// form: compiled graphs do not cross the wire.
func (b *RemoteBackend) PutPart(name string, req DeployRequest, st *dsms.QueryState) (BackendDeployment, error) {
	if req.Script == "" {
		return BackendDeployment{}, fmt.Errorf("runtime: remote shard %s: deploy requires a StreamSQL script (use DeployScript)", b.addr)
	}
	resp, err := call(b, dsmsd.Deploy, dsmsd.DeployReq{Name: name, Script: req.Script, Stage: req.Stage, State: st})
	return BackendDeployment{ID: resp.QueryID, OutputSchema: resp.OutputSchema}, err
}

// DeletePart implements ShardBackend.
func (b *RemoteBackend) DeletePart(name string) error {
	_, err := call(b, dsmsd.Withdraw, dsmsd.WithdrawReq{IDOrHandle: name})
	return err
}

// ListParts implements ShardBackend.
func (b *RemoteBackend) ListParts() ([]string, error) {
	resp, err := call(b, dsmsd.ListParts, struct{}{})
	return resp.Names, err
}

// Replicate implements ShardBackend: it ships a contiguous run of a
// replicated stream to the follower dsmsd. The server deduplicates
// against its stored position using base, so a redelivery after a lost
// ack trims the already-applied prefix instead of double-ingesting.
func (b *RemoteBackend) Replicate(streamName string, log, base uint64, reset bool, ts []stream.Tuple) (uint64, error) {
	resp, err := call(b, dsmsd.Replicate, dsmsd.ReplicateReq{Stream: streamName, Log: log, Base: base, Reset: reset, Tuples: ts})
	return resp.Acked, err
}

// ExportQueryState implements ShardBackend: it serializes a deployed
// query's window state off the dsmsd for migration.
func (b *RemoteBackend) ExportQueryState(name string) (*dsms.QueryState, error) {
	resp, err := call(b, dsmsd.Migrate, dsmsd.MigrateReq{Export: name})
	return resp.State, err
}

// Close implements ShardBackend: stops the probe, drops the RPC
// connection and tears down every dedicated subscription connection —
// ending each subscription exactly as a local engine's close ends its
// consumers. The dsmsd process itself is left to its owner.
func (b *RemoteBackend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	cli := b.cli
	b.cli = nil
	subs := make([]*protocol.Client, 0, len(b.subs))
	for rpc := range b.subs {
		subs = append(subs, rpc)
	}
	b.subs = nil
	b.mu.Unlock()
	close(b.probeStop)
	<-b.probeDone
	for _, rpc := range subs {
		_ = rpc.Close()
	}
	if cli != nil {
		return cli.Close()
	}
	return nil
}

// removeSub forgets a subscription connection the consumer closed
// itself.
func (b *RemoteBackend) removeSub(rpc *protocol.Client) {
	b.mu.Lock()
	delete(b.subs, rpc)
	b.mu.Unlock()
}

// Subscribe implements ShardBackend. The dsmsd protocol carries one
// subscription per connection, so each subscription gets a dedicated
// connection whose read loop decodes each pushed tuple and hands it to
// push in a reused one-tuple batch. Nothing is buffered here: a push
// that blocks holds the read loop, and TCP carries the backpressure to
// the dsmsd's writer.
func (b *RemoteBackend) Subscribe(name string, push func([]stream.Tuple), end func()) (func(), error) {
	b.mu.Lock()
	down, closed := b.downErr, b.closed
	b.mu.Unlock()
	if down != nil {
		return nil, down
	}
	if closed {
		return nil, b.connErr("runtime: remote shard %s: %w", errors.New("backend closed"))
	}
	rpc, err := b.dialSubscribe()
	if err != nil {
		return nil, b.connErr("runtime: remote shard %s: subscribe: %w", err)
	}
	one := make([]stream.Tuple, 1)
	rpc.SetPush(func(m *protocol.Message) {
		if m.Type != dsmsd.MsgTuple {
			return
		}
		t, err := protocol.Decode[stream.Tuple](m)
		if err != nil {
			return
		}
		one[0] = t
		push(one)
	})
	if _, err := rpc.Call(dsmsd.MsgSubscribe, dsmsd.SubscribeReq{IDOrHandle: name}); err != nil {
		_ = rpc.Close()
		return nil, err
	}
	b.mu.Lock()
	if b.closed {
		// The backend closed while we subscribed; don't leak the conn.
		b.mu.Unlock()
		_ = rpc.Close()
		return nil, b.connErr("runtime: remote shard %s: %w", errors.New("backend closed"))
	}
	b.subs[rpc] = struct{}{}
	b.mu.Unlock()
	// Installed last, so a failed Subscribe never ends; on a connection
	// already dead it runs at once.
	rpc.SetOnClose(func(error) { end() })
	// Closing tears down the dedicated connection; end runs from its
	// OnClose.
	return func() {
		b.removeSub(rpc)
		_ = rpc.Close()
	}, nil
}

// dialSubscribe opens the dedicated per-subscription connection,
// bounding the TCP connect by the call timeout.
func (b *RemoteBackend) dialSubscribe() (*protocol.Client, error) {
	if b.opts.CallTimeout <= 0 {
		return protocol.Dial(b.addr)
	}
	nc, err := net.DialTimeout("tcp", b.addr, b.opts.CallTimeout)
	if err != nil {
		return nil, err
	}
	return protocol.NewClient(protocol.NewConn(nc)), nil
}

var _ ShardBackend = (*RemoteBackend)(nil)
