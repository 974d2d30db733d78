package dverify

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tightcps/internal/verify"
)

// TCP/gob transport. The coordinator dials one long-lived connection per
// worker daemon (cmd/verifyd) and streams the Request/Response protocol
// over it; the daemons additionally dial each other at Init (one directed
// connection per ordered node pair, negotiated from Job.Peers) and stream
// level-tagged Frame batches over those links, so frontier data never
// transits the coordinator. A worker disconnect surfaces as a Call error —
// io.EOF or a connection reset — which aborts the run cleanly rather than
// hanging an exchange; a broken worker↔worker link surfaces through the
// victim's next poll snapshot, naming both ends.

// Dial connects to the worker daemons at addrs (host:port each), returning
// one transport per address in order. On any failure the already-opened
// connections are closed.
func Dial(addrs []string, timeout time.Duration) ([]Transport, error) {
	return DialRetry(addrs, timeout, 1, nil)
}

// dialBackoff is DialRetry's first wait between attempts at one address.
const dialBackoff = 500 * time.Millisecond

// DialRetry is Dial with a bounded startup-retry schedule per address:
// attempts tries each, sleeping dialBackoff, then twice that, four times, …
// between them (capped at 10s per wait). It rides out workers that are still
// booting — a fleet brought up by an orchestrator rarely wins the race
// against its coordinator — without masking a dead address forever. logf
// (nil-safe) receives one line per failed attempt with the remaining
// schedule, so a stuck boot names the address it is waiting on.
func DialRetry(addrs []string, timeout time.Duration, attempts int, logf func(format string, args ...any)) ([]Transport, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if attempts < 1 {
		attempts = 1
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ts := make([]Transport, 0, len(addrs))
	for _, addr := range addrs {
		var conn net.Conn
		var err error
		wait := dialBackoff
		for try := 1; ; try++ {
			conn, err = net.DialTimeout("tcp", addr, timeout)
			if err == nil {
				break
			}
			if try >= attempts {
				Close(ts)
				return nil, fmt.Errorf("dverify: dialing worker %s (%d attempts): %w", addr, attempts, err)
			}
			logf("worker %s unreachable (attempt %d/%d, retrying in %v): %v", addr, try, attempts, wait, err)
			time.Sleep(wait)
			if wait *= 2; wait > 10*time.Second {
				wait = 10 * time.Second
			}
		}
		ts = append(ts, &tcpTransport{
			addr: addr,
			conn: conn,
			enc:  gob.NewEncoder(conn),
			dec:  gob.NewDecoder(conn),
		})
	}
	return ts, nil
}

type tcpTransport struct {
	addr string // as dialed — the address peers can reach the worker at
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func (t *tcpTransport) Call(req *Request) (*Response, error) {
	if err := t.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("sending %v to %s: %w", req.Kind, t.conn.RemoteAddr(), err)
	}
	var resp Response
	if err := t.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("receiving from %s: %w", t.conn.RemoteAddr(), err)
	}
	return &resp, nil
}

func (t *tcpTransport) Close() error { return t.conn.Close() }

// meshHost is a daemon's rendezvous between mesh workers (registered by
// the coordinator session's Init) and inbound peer connections (which may
// arrive before the Init does — peers race their dials).
type meshHost struct {
	mu    sync.Mutex
	nodes map[uint64]map[int]*hostNode
}

// hostNode is what an inbound peer link needs from a registered worker:
// where to push batches and how to decode them.
type hostNode struct {
	inbox *meshInbox
	exp   *verify.Expander
}

func newMeshHost() *meshHost {
	return &meshHost{nodes: map[uint64]map[int]*hostNode{}}
}

func (h *meshHost) register(session uint64, id int, n *hostNode) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.nodes[session]
	if m == nil {
		m = map[int]*hostNode{}
		h.nodes[session] = m
	}
	if m[id] != nil {
		return fmt.Errorf("dverify: node %d already registered in session %#x", id, session)
	}
	m[id] = n
	return nil
}

func (h *meshHost) unregister(session uint64, id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if m := h.nodes[session]; m != nil {
		delete(m, id)
		if len(m) == 0 {
			delete(h.nodes, session)
		}
	}
}

func (h *meshHost) lookup(session uint64, id int) *hostNode {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nodes[session][id]
}

// await polls for a registration: inbound peer connections park here until
// the matching Init lands (or the deadline passes — a peer dialing a
// session this daemon never joins must not leak a goroutine).
func (h *meshHost) await(session uint64, id int, timeout time.Duration) *hostNode {
	deadline := time.Now().Add(timeout)
	for {
		if n := h.lookup(session, id); n != nil {
			return n
		}
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tcpMeshLink is one directed worker↔worker link: batches are encoded
// with the versioned frontier codec (sorted varint-delta, raw when that is
// smaller) and shipped as gob Frames.
type tcpMeshLink struct {
	to    int
	conn  net.Conn
	enc   *gob.Encoder
	codec *frontierCodec
	buf   []byte
}

func (l *tcpMeshLink) send(era, level int, states []uint64) (int, error) {
	l.buf = l.codec.encode(states, l.buf[:0])
	putBatch(states)
	if err := l.enc.Encode(Frame{Level: level, Era: era, Batch: l.buf}); err != nil {
		return 0, err
	}
	return len(l.buf), nil
}

// wantFilter takes the sender filter: every duplicate suppressed is bytes
// not shipped.
func (l *tcpMeshLink) wantFilter() bool { return true }

func (l *tcpMeshLink) close() error { return l.conn.Close() }

// tcpEnv wires a verifyd worker into the mesh: register with the host so
// inbound peer links find the inbox, then dial every peer for the
// outbound links.
type tcpEnv struct {
	host *meshHost
}

func (e tcpEnv) connect(job *Job, inbox *meshInbox, exp *verify.Expander) ([]meshLink, func(), error) {
	if len(job.Peers) != job.NumNodes {
		return nil, nil, fmt.Errorf("dverify: mesh init names %d peers for %d nodes", len(job.Peers), job.NumNodes)
	}
	if err := e.host.register(job.Session, job.NodeID, &hostNode{inbox: inbox, exp: exp}); err != nil {
		return nil, nil, err
	}
	session, id := job.Session, job.NodeID
	cleanup := func() { e.host.unregister(session, id) }
	links := make([]meshLink, job.NumNodes)
	for d := range links {
		if d == id {
			continue
		}
		conn, err := net.DialTimeout("tcp", job.Peers[d], 5*time.Second)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			enc := gob.NewEncoder(conn)
			err = enc.Encode(&Request{Kind: KindPeerHello, Hello: &PeerHello{
				Proto: protoVersion, Session: session, From: id, To: d,
			}})
			if err == nil {
				links[d] = &tcpMeshLink{to: d, conn: conn, enc: enc, codec: newFrontierCodec(exp)}
				continue
			}
			conn.Close()
		}
		for _, l := range links {
			if l != nil {
				l.close()
			}
		}
		cleanup()
		return nil, nil, fmt.Errorf("dverify: node %d dialing mesh peer %d (%s): %v", id, d, job.Peers[d], err)
	}
	return links, cleanup, nil
}

// Server runs a worker daemon: it accepts coordinator sessions and
// inbound worker↔worker mesh links on one listener, distinguishing them
// by the first decoded request (mesh links open with KindPeerHello).
// Connections are served concurrently — a daemon hosts one cluster's
// worker while accepting the peer links of that same cluster — but the
// worker slot itself is exclusive: a second coordinator session's jobs
// are refused until the first ends, preserving the per-node MaxStates
// memory model (one visited partition resident at a time).
type Server struct {
	l    net.Listener
	logf func(format string, args ...any)
	host *meshHost

	mu       sync.Mutex
	draining bool
	busy     bool
	sessions sync.WaitGroup
}

// NewServer wraps a listener into a worker daemon. logf, when non-nil,
// receives one line per session and per protocol error.
func NewServer(l net.Listener, logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{l: l, logf: logf, host: newMeshHost()}
}

// Serve accepts sessions until the listener fails. After Shutdown it
// drains the active coordinator sessions and returns nil.
func (s *Server) Serve() error {
	for {
		conn, err := s.l.Accept()
		if err != nil {
			if s.isDraining() {
				s.sessions.Wait()
				return nil
			}
			return err
		}
		// A coordinator that vanishes without FIN (partition, suspend) must
		// not wedge the worker forever: keepalive probes turn the dead link
		// into a read error, returning the session to cleanup.
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetKeepAlive(true)
			tc.SetKeepAlivePeriod(30 * time.Second)
			tc.SetNoDelay(true)
		}
		// Registered before the serving goroutine exists: a drain must wait
		// for every accepted connection — including a coordinator that has
		// connected but not yet sent its first request — and Add may not
		// race a Wait that observed zero.
		s.sessions.Add(1)
		go s.serveConn(conn)
	}
}

// Shutdown drains the daemon: the listener closes (new connections and
// new jobs are refused), active sessions run to completion, and Serve
// then returns nil. Mesh links of active jobs stay up — a drain never
// drops a TCP link mid-level.
func (s *Server) Shutdown() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.l.Close()
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// serveConn dispatches one inbound connection: a peer hello turns it into
// a mesh data link, anything else starts a coordinator session.
func (s *Server) serveConn(conn net.Conn) {
	defer s.sessions.Done()
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	var first Request
	if err := dec.Decode(&first); err != nil {
		if err != io.EOF {
			s.logf("conn %s: decode: %v", conn.RemoteAddr(), err)
		}
		return
	}
	if first.Kind == KindPeerHello {
		s.servePeer(conn, dec, first.Hello)
		return
	}
	s.logf("session from %s", conn.RemoteAddr())
	enc := gob.NewEncoder(conn)
	held := false
	acquire := func() bool {
		if held {
			return true
		}
		// Wait briefly before refusing: back-to-back CLI invocations race
		// the previous session's EOF processing by microseconds (the old
		// serial accept loop made them queue), while a genuinely
		// concurrent second cluster still gets a clean refusal.
		deadline := time.Now().Add(3 * time.Second)
		for {
			s.mu.Lock()
			if !s.busy {
				s.busy, held = true, true
				s.mu.Unlock()
				return true
			}
			s.mu.Unlock()
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	defer func() {
		if held {
			s.mu.Lock()
			s.busy = false
			s.mu.Unlock()
		}
	}()
	h := handler{env: tcpEnv{host: s.host}, draining: s.isDraining, acquire: acquire}
	defer h.reset()
	req := &first
	for {
		if req.Kind == KindInit && req.Job != nil && req.Job.RunID != "" {
			// The run ID is the cross-plane join key: grep it here, in the
			// admission front door's response, and in the coordinator trace.
			s.logf("session %s: run %s (node %d of %d)", conn.RemoteAddr(), req.Job.RunID, req.Job.NodeID, req.Job.NumNodes)
		}
		if err := enc.Encode(h.handle(req)); err != nil {
			s.logf("session %s: encode: %v", conn.RemoteAddr(), err)
			return
		}
		req = &Request{}
		if err := dec.Decode(req); err != nil {
			if err != io.EOF {
				s.logf("session %s: decode: %v", conn.RemoteAddr(), err)
			} else {
				s.logf("session %s closed", conn.RemoteAddr())
			}
			return
		}
	}
}

// servePeer pumps one inbound mesh link into the owning worker's inbox.
// The link outliving its session (late frames after a finished run) is
// normal — frames for an unregistered node are dropped.
func (s *Server) servePeer(conn net.Conn, dec *gob.Decoder, hello *PeerHello) {
	if hello == nil {
		s.logf("peer conn %s: hello without a body", conn.RemoteAddr())
		return
	}
	if hello.Proto != protoVersion {
		s.logf("peer conn %s: protocol %d, this worker speaks %d", conn.RemoteAddr(), hello.Proto, protoVersion)
		return
	}
	n := s.host.await(hello.Session, hello.To, 10*time.Second)
	if n == nil {
		s.logf("peer conn %s: session %#x node %d never registered", conn.RemoteAddr(), hello.Session, hello.To)
		return
	}
	codec := newFrontierCodec(n.exp)
	for {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			// A link failing while its node is still registered poisons the
			// run loudly through the node's next snapshot; after the session
			// ends, the sender closing the link is the expected teardown.
			if s.host.lookup(hello.Session, hello.To) == n {
				n.inbox.push(meshBatch{from: hello.From, err: fmt.Errorf("mesh link from node %d: %v", hello.From, err)})
			}
			return
		}
		states, err := codec.decode(f.Batch, getBatch())
		if err != nil {
			n.inbox.push(meshBatch{from: hello.From, err: fmt.Errorf("mesh link from node %d: %v", hello.From, err)})
			return
		}
		n.inbox.push(meshBatch{from: hello.From, level: f.Level, era: f.Era, states: states})
	}
}
