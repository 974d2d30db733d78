package dverify

import (
	"errors"
	"fmt"
	"sync"
)

// Loopback returns transports to n in-process worker nodes, each served by
// its own goroutine over unbuffered channels. It is the test and benchmark
// form of the cluster (the commands dial verifyd workers): protocol,
// partitioning and the mesh exchange are those of the TCP transport, with
// channel handoff in place of gob framing and no encoding. Close the
// transports (dverify.Close) to stop the worker goroutines.
func Loopback(n int) []Transport {
	g := &loopGroup{sessions: map[uint64]*loopSession{}}
	ts := make([]Transport, n)
	for i := range ts {
		lt := &loopTransport{
			group: g,
			req:   make(chan *Request),
			resp:  make(chan *Response, 1),
			kill:  make(chan struct{}),
		}
		go lt.serve()
		ts[i] = lt
	}
	return ts
}

// loopGroup is the in-process mesh rendezvous shared by one Loopback
// cluster: workers register their inboxes per session at Init and resolve
// peers through it. The hooks inject link faults and delivery interleavings
// for tests; they are copied into sessions created after they are set.
type loopGroup struct {
	mu       sync.Mutex
	sessions map[uint64]*loopSession

	// failSend, when non-nil, may veto a link send (simulating a broken
	// worker↔worker connection).
	failSend func(from, to int) error
	// deliver, when non-nil, intercepts a link delivery; it may delay or
	// reorder by calling push later (from any goroutine). Returning false
	// falls back to direct delivery.
	deliver func(from, to int, b meshBatch, push func(meshBatch)) bool
}

// loopSession is one run's worth of registered worker inboxes.
type loopSession struct {
	g        *loopGroup
	inboxes  []*meshInbox
	refs     int
	failSend func(from, to int) error
	deliver  func(from, to int, b meshBatch, push func(meshBatch)) bool
}

// join registers a node's inbox in the session (creating it on first use).
func (g *loopGroup) join(job *Job, inbox *meshInbox) (*loopSession, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.sessions[job.Session]
	if s == nil {
		s = &loopSession{
			g:        g,
			inboxes:  make([]*meshInbox, job.NumNodes),
			failSend: g.failSend,
			deliver:  g.deliver,
		}
		g.sessions[job.Session] = s
	}
	if len(s.inboxes) != job.NumNodes {
		return nil, fmt.Errorf("dverify: session %#x sized for %d nodes, node %d expects %d",
			job.Session, len(s.inboxes), job.NodeID, job.NumNodes)
	}
	if s.inboxes[job.NodeID] != nil {
		return nil, fmt.Errorf("dverify: node %d already registered in session %#x", job.NodeID, job.Session)
	}
	s.inboxes[job.NodeID] = inbox
	s.refs++
	return s, nil
}

// peer resolves a destination inbox.
func (s *loopSession) peer(to int) *meshInbox {
	s.g.mu.Lock()
	defer s.g.mu.Unlock()
	return s.inboxes[to]
}

// loopLink is one directed in-process mesh link: a push into the peer's
// inbox, no serialization.
type loopLink struct {
	sess     *loopSession
	from, to int
}

func (l *loopLink) send(level int, states []uint64) error {
	if hook := l.sess.failSend; hook != nil {
		if err := hook(l.from, l.to); err != nil {
			return err
		}
	}
	ib := l.sess.peer(l.to)
	if ib == nil {
		return fmt.Errorf("peer node %d is not registered in this session", l.to)
	}
	b := meshBatch{from: l.from, level: level, states: states}
	if hook := l.sess.deliver; hook == nil || !hook(l.from, l.to, b, ib.push) {
		ib.push(b)
	}
	return nil
}

func (l *loopLink) close() error { return nil }

// loopEnv wires a loopback worker into its group's session registry.
type loopEnv struct{ g *loopGroup }

func (e loopEnv) connect(w *meshWorker) ([]meshLink, error) {
	job := w.job
	sess, err := e.g.join(job, w.inbox)
	if err != nil {
		return nil, err
	}
	// One backing array for all n−1 links: per-link allocations would give
	// every re-Init an n² term across the cluster.
	links := make([]meshLink, job.NumNodes)
	ls := make([]loopLink, job.NumNodes)
	for d := range links {
		if d != job.NodeID {
			ls[d] = loopLink{sess: sess, from: job.NodeID, to: d}
			links[d] = &ls[d]
		}
	}
	return links, nil
}

// leave drops a node's registration, deleting the session with the last.
func (e loopEnv) leave(job *Job) {
	g := e.g
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.sessions[job.Session]
	if s == nil {
		return
	}
	s.inboxes[job.NodeID] = nil
	if s.refs--; s.refs == 0 {
		delete(g.sessions, job.Session)
	}
}

// loopTransport is one coordinator↔goroutine link. Call and Close must not
// race each other (the coordinator is strictly sequential per transport).
// kill is the fault-injection guillotine: closing it makes every Call
// fail immediately and stops the serve loop after its in-flight request —
// the in-process analogue of SIGKILLing a verifyd (the worker's teardown
// still runs, standing in for the OS reclaiming a dead process's
// sockets).
type loopTransport struct {
	group  *loopGroup
	req    chan *Request
	resp   chan *Response // buffered: an abandoned call must not wedge serve
	kill   chan struct{}
	closed bool
}

// serve is the worker goroutine: one handler per transport lifetime,
// serving requests until Close shuts the request channel or a fault
// kills the worker. Any live mesh worker is torn down on exit so neither
// its session registration nor its mapped visited tables leak.
func (lt *loopTransport) serve() {
	h := handler{env: loopEnv{lt.group}}
	defer h.reset()
	for {
		select {
		case req, ok := <-lt.req:
			if !ok {
				return
			}
			lt.resp <- h.handle(req)
		case <-lt.kill:
			return
		}
	}
}

func (lt *loopTransport) Call(req *Request) (*Response, error) {
	if lt.closed {
		return nil, errors.New("loopback transport is closed")
	}
	select {
	case lt.req <- req:
	case <-lt.kill:
		return nil, errors.New("loopback worker was killed")
	}
	select {
	case resp := <-lt.resp:
		return resp, nil
	case <-lt.kill:
		return nil, errors.New("loopback worker was killed")
	}
}

func (lt *loopTransport) Close() error {
	if !lt.closed {
		lt.closed = true
		close(lt.req)
	}
	return nil
}
