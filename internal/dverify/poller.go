package dverify

import (
	"fmt"
	"time"
)

// meshPoller keeps one long-lived call goroutine per node of an attempt so
// the poll loop's rounds reuse the same machinery instead of spawning
// goroutines and result slices every round (those per-round allocations
// grew with the node count). Rounds stay concurrent — workers expand their
// level inside Call, so a sequential round would serialize the cluster.
//
// Every round bounds its wait with meshDeathTimeout. A round with a death
// is the attempt's last level round (the attempt ends, and the dead node's
// transport is never called again), so an answer the poller gave up on is
// never awaited: its goroutine delivers it into the buffered done channel
// and exits once the poller is closed.
type meshPoller struct {
	reqs     []chan *Request
	done     chan pollResult // one answer per node: a call given up on never blocks its goroutine
	errs     []error         // why each node died: transport error, Response.Err, timeout or a peer's LinkDown
	inflight []bool
	all      []int       // every node index, round's default address set
	timer    *time.Timer // the rounds' one death timer, re-armed per round
}

type pollResult struct {
	i    int
	resp *Response
	err  error
}

func newMeshPoller(nodes []Transport) *meshPoller {
	n := len(nodes)
	p := &meshPoller{
		reqs:     make([]chan *Request, n),
		done:     make(chan pollResult, n),
		errs:     make([]error, n),
		inflight: make([]bool, n),
		all:      make([]int, n),
		timer:    time.NewTimer(meshDeathTimeout),
	}
	p.timer.Stop()
	for i, tr := range nodes {
		p.all[i] = i
		ch := make(chan *Request)
		p.reqs[i] = ch
		go func() {
			for req := range ch {
				resp, err := tr.Call(req)
				p.done <- pollResult{i: i, resp: resp, err: err}
			}
		}()
	}
	return p
}

// round sends reqf(i) to every node of idxs (nil = all; a request may be
// shared and must not be mutated until the round completes), collects the
// answers into resps and returns the nodes that died this round, each with
// its cause in errs: a transport error, a worker-reported Err, or no answer
// within meshDeathTimeout. Entries of resps outside idxs are left
// untouched; those of dead nodes are nil. It waits for every call or the
// timeout.
func (p *meshPoller) round(resps []*Response, idxs []int, reqf func(i int) *Request) (dead []int) {
	if idxs == nil {
		idxs = p.all
	}
	for _, i := range idxs {
		resps[i] = nil
		p.inflight[i] = true
		p.reqs[i] <- reqf(i)
	}
	p.timer.Reset(meshDeathTimeout)
	defer p.timer.Stop()
	for n := len(idxs); n > 0; n-- {
		select {
		case r := <-p.done:
			p.inflight[r.i] = false
			switch {
			case r.err != nil:
				p.errs[r.i] = r.err
			case r.resp.Err != "":
				p.errs[r.i] = workerErr(r.resp.Err)
			default:
				resps[r.i] = r.resp
				continue
			}
			dead = append(dead, r.i)
		case <-p.timer.C:
			// Unanswered workers are declared dead. Workers answer every
			// poll within meshPollBudget, so only a dead or wedged node
			// ever trips this.
			for i, f := range p.inflight {
				if f {
					p.inflight[i] = false
					p.errs[i] = fmt.Errorf("no answer to a poll within %v", meshDeathTimeout)
					dead = append(dead, i)
				}
			}
			return dead
		}
	}
	return dead
}

// workerErr is a failure the worker itself reported (Response.Err), as
// opposed to one of its transport: at Init it is a refusal of the job.
type workerErr string

func (e workerErr) Error() string { return string(e) }

func (p *meshPoller) close() {
	for _, ch := range p.reqs {
		close(ch)
	}
}
