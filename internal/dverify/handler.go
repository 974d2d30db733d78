package dverify

import (
	"fmt"
	"slices"

	"tightcps/internal/switching"
)

// jobsCompatible reports whether a worker built for prev can donate its
// standing part to next: everything that shaped its expander, lanes,
// visited partition and cluster placement must be identical. Session, Peers and
// MaxStates may differ — they never shape worker memory. This is what
// makes a standing cluster cheap to re-Init: the bench loop and a daemon
// re-verifying the same slot skip the expander rebuild and the visited
// reallocation entirely.
func jobsCompatible(prev, next *Job) bool {
	if prev == nil || next == nil ||
		prev.NumNodes != next.NumNodes || prev.NodeID != next.NodeID || prev.Workers != next.Workers ||
		prev.Policy != next.Policy ||
		prev.NondetTies != next.NondetTies || prev.SymmetryReduction != next.SymmetryReduction ||
		len(prev.Profiles) != len(next.Profiles) {
		return false
	}
	for i := range prev.Profiles {
		if !profilesEqual(&prev.Profiles[i], &next.Profiles[i]) {
			return false
		}
	}
	return true
}

// profilesEqual compares the full precomputed profile — the expander is a
// pure function of it, so equality here is what licenses expander reuse.
func profilesEqual(a, b *switching.Profile) bool {
	return a.Name == b.Name && a.JStar == b.JStar && a.R == b.R &&
		a.JT == b.JT && a.JE == b.JE && a.TwStar == b.TwStar &&
		a.Granularity == b.Granularity &&
		slices.Equal(a.TdwMinus, b.TdwMinus) && slices.Equal(a.TdwPlus, b.TdwPlus) &&
		slices.Equal(a.JBest, b.JBest) && slices.Equal(a.JAtMin, b.JAtMin)
}

// handler serves one coordinator session, holding the mesh worker across
// the session's requests. Both transports — the loopback goroutine and a
// verifyd TCP session — dispatch through it, so worker behaviour is
// identical on either.
type handler struct {
	// env wires the worker into its cluster's data plane.
	env meshEnv
	// draining, when non-nil, lets a shutting-down daemon refuse new jobs
	// while the active ones run to completion.
	draining func() bool
	// acquire, when non-nil, claims the host's single worker slot on the
	// session's first job — a worker node belongs to one cluster at a
	// time (its visited partition is sized by the per-node MaxStates
	// memory model, so concurrent coordinators would multiply residency).
	// The slot is held across re-Inits and released when the session ends.
	acquire func() bool

	mw *meshWorker
}

// reset tears down any live worker — its links and session registration
// must never outlive its job (conn reuse ships a fresh Init).
func (h *handler) reset() {
	if h.mw != nil {
		h.mw.shutdown()
		h.mw = nil
	}
}

// close ends the session: any live worker is torn down and its lanes hand
// their mapped visited tables back, since no later job can reuse them.
func (h *handler) close() {
	if mw := h.mw; mw != nil {
		h.reset()
		mw.lanes.Release()
	}
}

// handle answers one request. Errors travel in Response.Err rather than
// tearing the session down: the coordinator turns them into Go errors.
func (h *handler) handle(req *Request) *Response {
	switch req.Kind {
	case KindInit:
		if req.Job == nil {
			return &Response{Err: "init without a job"}
		}
		if h.draining != nil && h.draining() {
			return &Response{Err: "worker is draining (shutting down); refusing new jobs"}
		}
		if h.acquire != nil && !h.acquire() {
			return &Response{Err: "worker is busy with another coordinator session (one cluster per worker)"}
		}
		// Keep the torn-down worker around as a reuse donor: a compatible
		// follow-up job takes over its expander, visited table and batch
		// memory instead of rebuilding them.
		prev := h.mw
		h.reset()
		mw, resp, err := newMeshWorker(req.Job, h.env, prev)
		if prev != nil && prev != mw {
			prev.lanes.Release() // a donor nothing took: its tables go now
		}
		if err != nil {
			return &Response{Err: err.Error()}
		}
		h.mw = mw
		return resp
	case KindPoll:
		switch {
		case h.mw == nil:
			return &Response{Err: "poll before init"}
		case req.Ctl == nil:
			return &Response{Err: "poll without control"}
		}
		return h.mw.poll(req.Ctl)
	default:
		return &Response{Err: fmt.Sprintf("unknown request kind %d", req.Kind)}
	}
}
