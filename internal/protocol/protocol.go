// Package protocol implements the socket protocol the eXACML+ entities
// speak among themselves (the prototype's communications between
// clients, proxies and servers are socket-based): length-prefixed JSON
// frames carrying typed request/response messages, plus a small
// concurrent RPC client.
package protocol

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// ErrClosed is the sentinel wrapped by every client error caused by a
// dead or closed connection, so callers can distinguish connection
// death from server-side errors with errors.Is.
var ErrClosed = errors.New("protocol: connection closed")

// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize. It is
// a request error, not a connection failure: the connection stays
// usable and the error is never wrapped in ErrClosed.
var ErrFrameTooLarge = errors.New("protocol: frame too large")

// MaxFrameSize bounds a single frame (16 MiB) to contain damage from a
// corrupt or hostile peer.
const MaxFrameSize = 16 << 20

// Structured error codes carried on ".err" responses (Message.Code), so
// peers can branch on the kind of failure without matching error text.
// Handlers attach a code with WithCode; clients read it back with
// ErrorCode. An empty code means "unclassified server error".
const (
	// CodeAlreadyExists: the entity (stream, policy, ...) is already
	// registered on the server.
	CodeAlreadyExists = "already_exists"
	// CodeNotFound: the named stream/query/policy does not exist.
	CodeNotFound = "not_found"
	// CodeBadRequest: the request payload failed validation.
	CodeBadRequest = "bad_request"
)

// CodedError is an error tagged with a structured protocol code. On the
// server, handlers return one (via WithCode) so the ".err" response
// carries the code; on the client, Call reconstructs one from the
// response so errors.As / ErrorCode work across the wire. Its message is
// exactly the wrapped error's, so text-level handling is unchanged.
type CodedError struct {
	Code string
	Err  error
}

// Error implements error.
func (e *CodedError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped error to errors.Is/As.
func (e *CodedError) Unwrap() error { return e.Err }

// WithCode tags err with a structured code; a nil err stays nil.
func WithCode(code string, err error) error {
	if err == nil {
		return nil
	}
	return &CodedError{Code: code, Err: err}
}

// ErrorCode extracts the structured code from an error chain, or ""
// when the error carries none.
func ErrorCode(err error) string {
	var ce *CodedError
	if errors.As(err, &ce) {
		return ce.Code
	}
	return ""
}

// Message is one protocol frame.
type Message struct {
	// Type dispatches the handler ("access", "load_policy", "deploy",
	// ...). Responses use the request type suffixed with ".ok" or
	// ".err".
	Type string `json:"type"`
	// ID correlates responses with requests on a multiplexed
	// connection. Server-pushed stream tuples use ID of their
	// subscription request.
	ID uint64 `json:"id"`
	// Payload is the type-specific body.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Error carries the error text on ".err" responses.
	Error string `json:"error,omitempty"`
	// Code is the structured error code on ".err" responses (see the
	// Code* constants); empty for unclassified errors.
	Code string `json:"code,omitempty"`
}

// marshalFrame encodes a message and enforces the frame-size bound;
// its errors are request errors (the connection, if any, is unharmed).
func marshalFrame(m *Message) ([]byte, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("protocol: marshal: %w", err)
	}
	if len(data) > MaxFrameSize {
		return nil, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, len(data))
	}
	return data, nil
}

// writeFrameBytes writes one already-marshalled frame: 4-byte
// big-endian length prefix, then the payload.
func writeFrameBytes(w io.Writer, data []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, m *Message) error {
	data, err := marshalFrame(m)
	if err != nil {
		return err
	}
	return writeFrameBytes(w, data)
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	var m Message
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("protocol: unmarshal: %w", err)
	}
	return &m, nil
}

// Encode marshals a payload into a message.
func Encode(typ string, id uint64, payload any) (*Message, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("protocol: encode %s: %w", typ, err)
	}
	return &Message{Type: typ, ID: id, Payload: raw}, nil
}

// Decode unmarshals a message payload.
func Decode[T any](m *Message) (T, error) {
	var out T
	if len(m.Payload) == 0 {
		return out, nil
	}
	if err := json.Unmarshal(m.Payload, &out); err != nil {
		return out, fmt.Errorf("protocol: decode %s: %w", m.Type, err)
	}
	return out, nil
}

// Conn wraps a net.Conn with buffered, mutex-protected frame I/O.
type Conn struct {
	raw  net.Conn
	r    *bufio.Reader
	wmu  sync.Mutex
	w    *bufio.Writer
	once sync.Once
	done chan struct{}
}

// NewConn wraps a net.Conn.
func NewConn(c net.Conn) *Conn {
	return &Conn{raw: c, r: bufio.NewReader(c), w: bufio.NewWriter(c), done: make(chan struct{})}
}

// Send writes one frame and flushes.
func (c *Conn) Send(m *Message) error {
	reqErr, connErr := c.send(m)
	if reqErr != nil {
		return reqErr
	}
	return connErr
}

// send writes one frame and flushes, reporting request errors (bad
// marshal, oversized frame — the connection is still usable) separately
// from connection I/O errors.
func (c *Conn) send(m *Message) (reqErr, connErr error) {
	data, err := marshalFrame(m)
	if err != nil {
		return err, nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := writeFrameBytes(c.w, data); err != nil {
		return nil, err
	}
	return nil, c.w.Flush()
}

// Recv reads one frame.
func (c *Conn) Recv() (*Message, error) { return ReadFrame(c.r) }

// SetReadDeadline sets the underlying connection's read deadline; a
// blocked Recv fails with a timeout error once it passes. The zero time
// clears it.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline sets the underlying connection's write deadline; a
// Send blocked on a peer that stopped reading fails once it passes. The
// zero time clears it.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// Close closes the underlying connection.
func (c *Conn) Close() error {
	c.once.Do(func() { close(c.done) })
	return c.raw.Close()
}

// Done is closed once Close is called. A server closes a connection
// when its peer hangs up, so a hijacked connection's pusher can stop
// without waiting for its next write to fail.
func (c *Conn) Done() <-chan struct{} { return c.done }

// RemoteAddr exposes the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// Client is a simple synchronous RPC client over one connection.
// Multiple goroutines may Call concurrently; responses are matched by
// message ID. Server-pushed messages (stream tuples) are delivered to
// the Push handler.
type Client struct {
	conn   *Conn
	mu     sync.Mutex
	nextID uint64
	wait   map[uint64]chan *Message
	closed bool
	err    error

	// timeout bounds each outstanding Call via connection deadlines
	// (SetCallTimeout); zero means calls may wait forever.
	timeout time.Duration

	// push receives non-response messages (SetPush); onClose is
	// invoked once when the connection dies (SetOnClose). Both are
	// guarded by mu because the read loop starts at construction.
	push    func(*Message)
	onClose func(error)
}

// SetCallTimeout bounds every subsequent Call using the connection's
// read/write deadlines instead of a watchdog goroutine: the read
// deadline is armed while at least one call is outstanding (and pushed
// forward by every received frame) and cleared when the last response
// arrives, so idle connections and push-only subscription connections
// are never killed by it. When a deadline fires the connection dies
// with ErrClosed, exactly like any other I/O failure — a timed-out
// client must be redialed.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// armDeadlinesLocked sets or clears the read deadline according to the
// number of outstanding calls. Callers hold c.mu.
func (c *Client) armDeadlinesLocked() {
	if c.timeout <= 0 {
		return
	}
	if len(c.wait) > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.timeout))
	} else {
		_ = c.conn.SetReadDeadline(time.Time{})
	}
}

// SetPush installs the handler for non-response messages (e.g.
// subscribed tuples). Safe to call after Dial: the field is written
// under the client lock the read loop reads it through.
func (c *Client) SetPush(fn func(*Message)) {
	c.mu.Lock()
	c.push = fn
	c.mu.Unlock()
}

// SetOnClose installs the handler invoked exactly once when the
// connection dies, with the cause; push consumers use it to stop
// waiting for further pushes. If the connection is already dead, fn is
// invoked immediately so the notification cannot be lost.
func (c *Client) SetOnClose(fn func(error)) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if fn != nil {
			if err == nil {
				err = ErrClosed
			}
			fn(err)
		}
		return
	}
	c.onClose = fn
	c.mu.Unlock()
}

// NewClient starts the reader loop over the connection.
func NewClient(conn *Conn) *Client {
	c := &Client{conn: conn, wait: map[uint64]chan *Message{}}
	go c.readLoop()
	return c
}

// Dial connects to addr and returns a client.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(NewConn(nc)), nil
}

func (c *Client) readLoop() {
	for {
		m, err := c.conn.Recv()
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.wait[m.ID]
		if ok {
			delete(c.wait, m.ID)
		}
		c.armDeadlinesLocked()
		push := c.push
		c.mu.Unlock()
		if ok {
			ch <- m
		} else if push != nil {
			push(m)
		}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		err = ErrClosed
	} else if !errors.Is(err, ErrClosed) {
		err = fmt.Errorf("%w: %v", ErrClosed, err)
	}
	c.err = err
	for id, ch := range c.wait {
		delete(c.wait, id)
		close(ch)
	}
	c.closed = true
	onClose := c.onClose
	c.mu.Unlock()
	if onClose != nil {
		onClose(err)
	}
}

// Call sends a request and waits for its response. An ".err" response
// becomes a Go error.
func (c *Client) Call(typ string, payload any) (*Message, error) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan *Message, 1)
	c.wait[id] = ch
	if c.timeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	c.armDeadlinesLocked()
	c.mu.Unlock()

	req, err := Encode(typ, id, payload)
	if err != nil {
		c.mu.Lock()
		delete(c.wait, id)
		c.armDeadlinesLocked()
		c.mu.Unlock()
		return nil, err
	}
	if reqErr, connErr := c.conn.send(req); reqErr != nil || connErr != nil {
		c.mu.Lock()
		delete(c.wait, id)
		c.armDeadlinesLocked()
		c.mu.Unlock()
		// Request errors (bad marshal, oversized frame) leave the
		// connection usable and are returned as-is; only I/O failures
		// mean the connection is gone.
		if reqErr != nil {
			return nil, reqErr
		}
		return nil, fmt.Errorf("%w: %v", ErrClosed, connErr)
	}
	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("%w: %v", ErrClosed, io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	if resp.Error != "" {
		err := fmt.Errorf("%s", resp.Error)
		if resp.Code != "" {
			err = WithCode(resp.Code, err)
		}
		return resp, err
	}
	return resp, nil
}

// CallDecode performs Call and decodes the response payload into T.
func CallDecode[T any](c *Client, typ string, payload any) (T, error) {
	var zero T
	resp, err := c.Call(typ, payload)
	if err != nil {
		return zero, err
	}
	return Decode[T](resp)
}

// Alive reports whether the connection is still usable (it has not
// died or been closed). Readiness probes use it to check an upstream
// without issuing an RPC.
func (c *Client) Alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

// Handler processes one request and returns the response payload or an
// error.
type Handler func(m *Message, conn *Conn) (any, error)

// Server is a minimal framed-RPC server: one goroutine per connection,
// type-dispatched handlers, automatic ".ok"/".err" responses. Handlers
// may also take over the connection for streaming (returning
// ErrHijacked).
type Server struct {
	mu       sync.Mutex
	handlers map[string]Handler
	ln       net.Listener
	conns    map[*Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// Delay, when non-nil, injects simulated network latency per
	// request/response pair (see internal/netsim).
	Delay func(requestBytes, responseBytes int)

	// Observe, when non-nil, is called once per dispatched request with
	// the message type, handler latency and outcome (nil on success;
	// hijacked connections are not observed). Daemons wire it to
	// telemetry.RPCObserver for per-type request counters and latency
	// histograms.
	Observe func(typ string, d time.Duration, err error)
}

// ErrHijacked tells the server loop the handler owns the connection now.
var ErrHijacked = fmt.Errorf("protocol: connection hijacked")

// NewServer creates an empty server.
func NewServer() *Server {
	return &Server{handlers: map[string]Handler{}, conns: map[*Conn]struct{}{}}
}

// Handle registers a handler for a message type.
func (s *Server) Handle(typ string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[typ] = h
}

// Listen binds to addr ("127.0.0.1:0" for an ephemeral port) and starts
// accepting. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		conn := NewConn(nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn *Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		s.mu.Lock()
		h, ok := s.handlers[m.Type]
		delay := s.Delay
		obs := s.Observe
		s.mu.Unlock()

		reqBytes := len(m.Payload)
		var resp *Message
		if !ok {
			resp = &Message{Type: m.Type + ".err", ID: m.ID, Error: fmt.Sprintf("protocol: unknown message type %q", m.Type)}
		} else {
			var started time.Time
			if obs != nil {
				started = time.Now()
			}
			out, err := s.invoke(h, m, conn)
			if obs != nil && err != ErrHijacked {
				obs(m.Type, time.Since(started), err)
			}
			switch {
			case err == ErrHijacked:
				continue
			case err != nil:
				resp = &Message{Type: m.Type + ".err", ID: m.ID, Error: err.Error(), Code: ErrorCode(err)}
			default:
				enc, encErr := Encode(m.Type+".ok", m.ID, out)
				if encErr != nil {
					resp = &Message{Type: m.Type + ".err", ID: m.ID, Error: encErr.Error()}
				} else {
					resp = enc
				}
			}
		}
		if delay != nil {
			delay(reqBytes, len(resp.Payload))
		}
		if err := conn.Send(resp); err != nil {
			return
		}
	}
}

// invoke runs a handler, converting panics into errors so one bad
// request cannot take the whole server down.
func (s *Server) invoke(h Handler, m *Message, conn *Conn) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("protocol: handler %s panicked: %v", m.Type, r)
		}
	}()
	return h(m, conn)
}

// Close stops the listener and all connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]*Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}
