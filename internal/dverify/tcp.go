package dverify

import (
	"encoding/gob"
	"errors"
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
// io.EOF or a connection reset — which ends that node's part in the run
// rather than hanging an exchange; a broken worker↔worker link surfaces
// through the surviving end's next poll snapshot as the far end's death,
// naming both ends.

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

// Close closes the connection. A transport the Runner hook has already
// closed — a drained worker's — closes again without error.
func (t *tcpTransport) Close() error {
	if err := t.conn.Close(); !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// meshHost is a daemon's rendezvous between mesh workers (registered by
// the coordinator session's Init) and inbound peer connections (which may
// arrive before the Init does — peers race their dials).
type meshHost struct {
	mu    sync.Mutex
	slots map[hostKey]*hostSlot
}

type hostKey struct {
	session uint64
	id      int
}

// hostSlot is one (session, node) rendezvous: node is set, and ready
// closed, when the node registers; waiters counts the inbound links parked
// in await before that.
type hostSlot struct {
	node    *hostNode
	ready   chan struct{}
	waiters int
}

// hostNode is what an inbound peer link needs from a registered worker:
// where to push batches and how to decode them.
type hostNode struct {
	inbox *meshInbox
	exp   *verify.Expander
}

func newMeshHost() *meshHost {
	return &meshHost{slots: map[hostKey]*hostSlot{}}
}

// slot returns k's rendezvous, creating it on first use. Call under mu.
func (h *meshHost) slot(k hostKey) *hostSlot {
	s := h.slots[k]
	if s == nil {
		s = &hostSlot{ready: make(chan struct{})}
		h.slots[k] = s
	}
	return s
}

func (h *meshHost) register(session uint64, id int, n *hostNode) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.slot(hostKey{session, id})
	if s.node != nil {
		return fmt.Errorf("dverify: node %d already registered in session %#x", id, session)
	}
	s.node = n
	close(s.ready)
	return nil
}

func (h *meshHost) unregister(session uint64, id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.slots, hostKey{session, id})
}

func (h *meshHost) lookup(session uint64, id int) *hostNode {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.slots[hostKey{session, id}]; s != nil {
		return s.node
	}
	return nil
}

// await parks an inbound peer link until the matching Init registers its
// node, or the timeout passes — a peer dialing a session this daemon never
// joins must not leak a goroutine, nor the slot it waited on.
func (h *meshHost) await(session uint64, id int, timeout time.Duration) *hostNode {
	k := hostKey{session, id}
	h.mu.Lock()
	s := h.slot(k)
	s.waiters++
	h.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-s.ready:
	case <-t.C:
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.waiters--; s.node == nil && s.waiters == 0 && h.slots[k] == s {
		delete(h.slots, k)
	}
	return s.node
}

// tcpMeshLink is one directed worker↔worker link: batches are encoded
// as their words (Expander.AppendWords) and shipped as gob Frames.
type tcpMeshLink struct {
	conn net.Conn
	enc  *gob.Encoder
	exp  *verify.Expander
	buf  []byte
}

func (l *tcpMeshLink) send(level int, states []uint64) error {
	l.buf = l.exp.AppendWords(l.buf[:0], states)
	putBatch(states)
	return l.enc.Encode(Frame{Level: level, Batch: l.buf})
}

func (l *tcpMeshLink) close() error { return l.conn.Close() }

// tcpEnv wires a verifyd worker into the mesh: register with the host so
// inbound peer links find the inbox, then dial every peer for the
// outbound links.
type tcpEnv struct {
	host *meshHost
}

func (e tcpEnv) connect(w *meshWorker) ([]meshLink, error) {
	job := w.job
	if len(job.Peers) != job.NumNodes {
		return nil, fmt.Errorf("dverify: mesh init names %d peers for %d nodes", len(job.Peers), job.NumNodes)
	}
	if err := e.host.register(job.Session, job.NodeID, &hostNode{inbox: w.inbox, exp: w.exp}); err != nil {
		return nil, err
	}
	session, id := job.Session, job.NodeID
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
				links[d] = &tcpMeshLink{conn: conn, enc: enc, exp: w.exp}
				continue
			}
			conn.Close()
		}
		w.noteLinkDown(d, fmt.Errorf("mesh link from node %d: dialing %s: %v", id, job.Peers[d], err))
	}
	return links, nil
}

func (e tcpEnv) leave(job *Job) { e.host.unregister(job.Session, job.NodeID) }

// slotWait is how long a coordinator session's Init waits for the worker
// slot before the worker refuses the job as busy. Package variable so tests
// can shrink it.
var slotWait = 3 * time.Second

// Server runs a worker daemon: it accepts coordinator sessions and
// inbound worker↔worker mesh links on one listener, distinguishing them
// by the first decoded request (mesh links open with KindPeerHello).
// Connections are served concurrently — a daemon hosts one cluster's
// worker while accepting the peer links of that same cluster — but the
// worker slot itself is exclusive: a second coordinator session's jobs
// are refused until the first ends: one visited partition is resident at
// a time.
type Server struct {
	l    net.Listener
	logf func(format string, args ...any)
	host *meshHost
	// slot is the worker slot: one token, taken by the coordinator session
	// whose job the worker runs and put back when that session ends.
	slot chan struct{}

	mu       sync.Mutex
	draining bool
	sessions sync.WaitGroup
}

// NewServer wraps a listener into a worker daemon. logf, when non-nil,
// receives one line per session and per protocol error.
func NewServer(l net.Listener, logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{l: l, logf: logf, host: newMeshHost(), slot: make(chan struct{}, 1)}
	s.slot <- struct{}{}
	return s
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
		// the previous session's EOF processing by microseconds, and take
		// the token the moment it is put back, while a genuinely
		// concurrent second cluster still gets a clean refusal.
		t := time.NewTimer(slotWait)
		defer t.Stop()
		select {
		case <-s.slot:
			held = true
		case <-t.C:
		}
		return held
	}
	defer func() {
		if held {
			s.slot <- struct{}{}
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
	for {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			// A link failing while its node is still registered is reported
			// as the sender's death in the node's next snapshot; after the
			// session ends, the sender closing the link is the expected
			// teardown.
			if s.host.lookup(hello.Session, hello.To) == n {
				n.inbox.push(meshBatch{from: hello.From, err: fmt.Errorf("mesh link to node %d: %v", hello.To, err)})
			}
			return
		}
		states, err := n.exp.DecodeWords(f.Batch, getBatch())
		if err != nil {
			n.inbox.push(meshBatch{from: hello.From, err: fmt.Errorf("mesh link to node %d: %v", hello.To, err)})
			return
		}
		n.inbox.push(meshBatch{from: hello.From, level: f.Level, states: states})
	}
}
