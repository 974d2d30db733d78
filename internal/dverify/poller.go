package dverify

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// meshPoller keeps one long-lived call goroutine per node so the poll
// loop's rounds reuse the same machinery instead of spawning goroutines
// and result slices every epoch (those per-round allocations grew with
// the node count). Rounds stay concurrent — workers long-poll inside
// Call, so a sequential round would serialize the cluster.
//
// Every dispatched call carries a sequence number and every round bounds
// its wait with meshDeathTimeout; an answer to a call the poller has given
// up on — or one issued against a transport since replaced by adopt — is
// discarded by sequence mismatch, so a slow reply from a declared-dead
// worker can never be mistaken for a current one.
type meshPoller struct {
	reqs     []chan pollReq
	done     chan pollResult
	errs     []error // why each node last died: transport error, Response.Err or timeout
	alive    []bool
	inflight []bool
	seqs     []uint64
	seq      uint64
	all      []int       // every node index, round's default address set
	timer    *time.Timer // the rounds' one death timer, re-armed per round
}

type pollReq struct {
	req *Request
	seq uint64
}

type pollResult struct {
	i    int
	seq  uint64
	resp *Response
	err  error
}

func newMeshPoller(nodes []Transport) *meshPoller {
	n := len(nodes)
	p := &meshPoller{
		reqs:     make([]chan pollReq, n),
		done:     make(chan pollResult, 4*n),
		errs:     make([]error, n),
		alive:    make([]bool, n),
		inflight: make([]bool, n),
		seqs:     make([]uint64, n),
		all:      make([]int, n),
		timer:    time.NewTimer(meshDeathTimeout),
	}
	p.timer.Stop()
	for i, tr := range nodes {
		p.alive[i], p.all[i] = true, i
		p.reqs[i] = p.spawn(i, tr)
	}
	return p
}

func (p *meshPoller) spawn(i int, tr Transport) chan pollReq {
	ch := make(chan pollReq)
	go func() {
		for pr := range ch {
			resp, err := tr.Call(pr.req)
			p.done <- pollResult{i: i, seq: pr.seq, resp: resp, err: err}
		}
	}()
	return ch
}

// round sends reqf(i) to every live node of idxs (nil = all; a request may
// be shared and must not be mutated until the round completes), collects
// the answers into resps and returns the nodes that died this round, each
// with its cause in errs: a transport error, a worker-reported Err, or no
// answer within meshDeathTimeout. Entries of resps outside idxs are left
// untouched; those of dead or evicted nodes are nil. It waits for every
// call or the timeout, so a partial failure never leaks an in-flight
// request into the next round.
func (p *meshPoller) round(resps []*Response, idxs []int, reqf func(i int) *Request) (dead []int) {
	if idxs == nil {
		idxs = p.all
	}
	n := 0
	for _, i := range idxs {
		resps[i] = nil
		if p.alive[i] {
			p.seq++
			p.seqs[i], p.inflight[i] = p.seq, true
			p.reqs[i] <- pollReq{reqf(i), p.seq}
			n++
		}
	}
	p.timer.Reset(meshDeathTimeout)
	defer p.timer.Stop()
	for n > 0 {
		select {
		case r := <-p.done:
			if !p.inflight[r.i] || r.seq != p.seqs[r.i] {
				continue // answer to an abandoned call
			}
			p.inflight[r.i] = false
			n--
			switch {
			case r.err != nil:
				p.errs[r.i] = r.err
			case r.resp.Err != "":
				p.errs[r.i] = errors.New(r.resp.Err)
			default:
				resps[r.i] = r.resp
				continue
			}
			dead = append(dead, r.i)
		case <-p.timer.C:
			// Unanswered workers are declared dead; their eventual answers
			// are discarded by the sequence check. Workers answer every
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

// deathOf is the error a run ends in when the nodes of dead die and
// nothing recovers them: it names the lowest and its cause.
func (p *meshPoller) deathOf(dead []int) error {
	d := slices.Min(dead)
	return fmt.Errorf("dverify: node %d: %w", d, p.errs[d])
}

// evict marks a node dead: it is skipped by every later round.
func (p *meshPoller) evict(i int) {
	p.alive[i] = false
}

// adopt replaces node i's transport with a late-joining spare: the old
// call channel is closed (its goroutine exits after any in-flight call,
// whose answer the sequence check discards) and a fresh goroutine
// serves the replacement under the same node index.
func (p *meshPoller) adopt(i int, tr Transport) {
	close(p.reqs[i])
	p.reqs[i] = p.spawn(i, tr)
	p.alive[i] = true
	p.inflight[i] = false
}

func (p *meshPoller) close() {
	for _, ch := range p.reqs {
		close(ch)
	}
}
