// Package admit is the admission service front door: a long-running
// HTTP/JSON control plane over the dimensioning engine, the config-salted
// persistent verdict store (mapping.Cache) and an optionally attached
// distributed verification cluster (internal/dverify).
//
// The paper's dimensioning loop is an admission decision — "does this
// profile set fit the slot?" — and this package serves it: POST /v1/admit
// submits a profile set plus a slot configuration and returns the verdict
// with its search statistics (states, depth, minimal violator);
// GET /v1/jobs/{id} polls an asynchronous submit; /healthz and /statsz
// expose liveness and counters.
//
// Three service-level disciplines sit between the HTTP surface and the
// engine:
//
//   - Coalescing. Concurrent submits whose profile sets are
//     fingerprint-equal (any permutation of the same profiles, under the
//     same verdict-relevant config) collapse into ONE backend
//     verification: the first becomes the leader, the rest park as
//     waiters and share the leader's verdict, each answered in its own
//     order. A fleet of clients asking the same hot question costs one
//     search no matter the fan-in.
//
//   - Bounded queue with per-request budgets. Leaders pass through a
//     bounded queue drained by one queue worker; a full queue refuses
//     with 503 + Retry-After instead of building unbounded backlog. Every
//     request carries an optional wall-clock budget (timeoutMs) and a
//     state budget (config.maxStates, clamped by the server): a waiter
//     whose budget expires gets 504 while the leader keeps running and
//     populates the store for the retry.
//
//   - Drain. Drain (wired to SIGTERM by cmd/verifyd) refuses new submits
//     with 503 + Retry-After while in-flight verdicts run to completion,
//     then checkpoints the store — so a fleet of admission daemons rolls
//     without dropping or corrupting a verdict.
//
// Verdicts live in one store, a mapping.Cache per config salt: the full
// record of every search this process ran (states/depth/violator
// included), and the bit-only records a warm start loaded from the shard
// files (Cache.SaveDir) under CacheDir. A bit-only record answers
// schedulable/not without search counts; the response marks it "warm" so
// clients can re-verify if they need the statistics. Verification errors
// are never stored — a failed backend run poisons nothing.
package admit

import (
	"cmp"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"tightcps/internal/mapping"
	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// VerifyBackend runs one slot-sharing verification. The service's backend
// is dverify.Runner over an attached cluster, or the local engine when
// nil. Backends are invoked from the service's one queue worker, one at a
// time: a cluster hook serialises its runs anyway, and a local search
// already uses every core.
type VerifyBackend func(profiles []*switching.Profile, cfg verify.Config) (verify.Result, error)

// Options configures a Service.
type Options struct {
	// Backend verifies admission questions; nil uses the in-process
	// engine (verify.Slot).
	Backend VerifyBackend
	// BackendDesc names the backend in /statsz ("local engine" when "").
	BackendDesc string
	// QueueDepth bounds the leader queue (default 64). A full queue
	// refuses submits with 503 + Retry-After.
	QueueDepth int
	// Workers is the lane count of a search. On the in-process engine 0
	// uses GOMAXPROCS and values below 2 are raised to 2: the parallel
	// driver's minimum-state violator rule is what keeps verdicts identical
	// across backends, so the service never runs the sequential driver's
	// insertion-order tie-break. An attached cluster gets it as given —
	// every node runs lanes, 0 worked out on each node.
	Workers int
	// MaxStates clamps per-request state budgets (0 = engine default
	// only). Requests asking for more are capped, not refused.
	MaxStates int
	// DefaultTimeout is the per-request wall budget when the request does
	// not set one (0 = wait for the verdict).
	DefaultTimeout time.Duration
	// CacheDir, when non-empty, persists admission bits across restarts:
	// one shard directory per verification config under this root
	// (mapping.Cache.SaveDir's layout), written incrementally by
	// Checkpoint/Drain.
	CacheDir string
	// Checkpoint is the periodic checkpoint interval for a hot service
	// (default 30s when CacheDir is set).
	Checkpoint time.Duration
	// LocalFallback serves verdicts from the in-process engine when the
	// backend fails with an error that is not a property of the request —
	// every worker of the cluster dead — instead of returning 502. Off by
	// default: the fallback runs the cluster's questions on one machine's
	// memory and cores.
	LocalFallback bool
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// call is one in-flight admission question. The leader owns the slot in
// Service.inflight; waiters block on done and read its outcome: the stored
// record, or the error that ended the run.
type call struct {
	*resolved
	runID    string // minted at enqueue — the admission boundary
	enqueued time.Time
	done     chan struct{}
	rec      mapping.Record
	err      error
	status   int // HTTP status classifying err
}

// job is one asynchronous submit: its own question, and the (possibly
// shared) call that answers it.
type job struct {
	id string
	rq *resolved
	c  *call
}

// Service is the admission front door. Create with New, serve its
// Handler, Drain before exit.
type Service struct {
	opts  Options
	start time.Time

	mu       sync.Mutex
	caches   map[uint64]*mapping.Cache // the verdict store, per config salt
	lat      map[uint64]*obs.Histogram // admission latency, per config salt
	inflight map[question]*call
	jobs     map[string]*job
	jobOrder []string
	jobSeq   int
	queue    chan *call
	draining bool
	stats    Stats

	workers   sync.WaitGroup
	drainOnce sync.Once
	drained   chan struct{}
	stopCk    chan struct{}
}

// maxJobs caps the async-job table; the oldest completed jobs are evicted
// beyond it.
const maxJobs = 1024

// New starts a Service: the queue worker begins draining the queue
// immediately, and the checkpoint loop runs when persistence is on.
func New(opts Options) *Service {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Checkpoint <= 0 {
		opts.Checkpoint = 30 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	s := &Service{
		opts:     opts,
		start:    time.Now(),
		caches:   map[uint64]*mapping.Cache{},
		lat:      map[uint64]*obs.Histogram{},
		inflight: map[question]*call{},
		jobs:     map[string]*job{},
		queue:    make(chan *call, opts.QueueDepth),
		drained:  make(chan struct{}),
		stopCk:   make(chan struct{}),
	}
	// Function gauges read the live service at scrape time; re-registering
	// rebinds the series, so the newest Service in a process (tests start
	// several) is the one exposed.
	obs.NewGaugeFunc("tightcps_admit_queue_depth",
		"Leader calls waiting in the bounded queue.",
		func() float64 { return float64(len(s.queue)) })
	obs.NewGaugeFunc("tightcps_admit_inflight",
		"Admission questions currently holding an in-flight verification.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.inflight))
		})
	s.workers.Add(1)
	go s.worker()
	if opts.CacheDir != "" {
		go s.checkpointLoop()
	}
	return s
}

// question identifies an admission question: the config salt and the
// order-independent profile-set fingerprint.
type question struct{ cfgKey, fp uint64 }

// resolved is a parsed, validated admission question.
type resolved struct {
	question
	profiles []*switching.Profile
	names    []string
	cfg      verify.Config
	store    *mapping.Cache // the verdict store of cfgKey
	deadline time.Time
}

// resolve parses and validates a request into the canonical question:
// profiles, effective config, and the question every coalescing and
// storing decision hangs on. Errors report the HTTP status to return.
func (s *Service) resolve(req *AdmitRequest) (*resolved, int, error) {
	var profiles []*switching.Profile
	var names []string
	switch {
	case len(req.Profiles) > 0 && len(req.Apps) > 0:
		return nil, http.StatusBadRequest, errors.New("request carries both inline profiles and named apps; send one")
	case len(req.Profiles) > 0:
		profiles = make([]*switching.Profile, len(req.Profiles))
		names = make([]string, len(req.Profiles))
		for i, pj := range req.Profiles {
			p, err := pj.profile(i)
			if err != nil {
				return nil, http.StatusBadRequest, err
			}
			profiles[i] = p
			names[i] = p.Name
		}
	case len(req.Apps) > 0:
		ps, err := plants.ProfileList(req.Apps...)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		profiles, names = ps, req.Apps
	default:
		return nil, http.StatusBadRequest, errors.New("request names no profiles (send \"profiles\" or \"apps\")")
	}

	cfg, err := req.Config.Config()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if s.opts.MaxStates > 0 && (cfg.MaxStates <= 0 || cfg.MaxStates > s.opts.MaxStates) {
		cfg.MaxStates = s.opts.MaxStates
	}
	cfg.Workers = s.opts.Workers
	if s.opts.Backend == nil {
		// The parallel driver's minimum-violating-state rule makes the
		// reported violator identical across worker counts and cluster
		// sizes; the sequential driver's insertion-order
		// tie-break does not. A service answer must not depend on the
		// box it ran on, so a local search has Workers ≥ 2 always.
		cfg.Workers = max(2, cmp.Or(cfg.Workers, runtime.GOMAXPROCS(0)))
	}
	if _, err := verify.New(profiles, cfg); err != nil {
		return nil, http.StatusBadRequest, err
	}

	// The config salt covers every verdict-relevant knob, the budget among
	// them: a question busts or not on any backend alike. Symmetry
	// reduction is salted in too — mapping.VerifyConfigKey excludes it
	// because it never flips the admission bit, but the service serves full
	// verdicts whose state/depth counts the quotient does change.
	var extra []uint64
	if cfg.SymmetryReduction {
		extra = append(extra, 0xa11ce5)
	}
	cfgKey := mapping.VerifyConfigKey(cfg, extra...)
	rq := &resolved{
		question: question{cfgKey, mapping.Fingerprint(profiles)},
		profiles: profiles, names: names, cfg: cfg,
		store: s.cacheFor(cfgKey),
	}
	if req.TimeoutMs > 0 {
		rq.deadline = time.Now().Add(time.Duration(req.TimeoutMs) * time.Millisecond)
	} else if s.opts.DefaultTimeout > 0 {
		rq.deadline = time.Now().Add(s.opts.DefaultTimeout)
	}
	return rq, 0, nil
}

// Admit answers one admission question synchronously, returning the
// response and its HTTP status. Identical concurrent questions coalesce
// onto one backend verification. The verification may keep req's dwell
// tables past the answer: do not modify them after submitting.
func (s *Service) Admit(req *AdmitRequest) (*AdmitResponse, int) {
	t0 := time.Now()
	rq, status, err := s.resolve(req)
	if err != nil {
		s.countError()
		return &AdmitResponse{Error: err.Error()}, status
	}
	c, state, status := s.lookup(rq)
	if state == lookupRefused {
		return &AdmitResponse{Error: refusalText(status, s.Draining())}, status
	}
	resp, status := s.wait(c, rq, state, t0)
	s.observeLatency(rq.cfgKey, t0)
	return resp, status
}

type lookupState int

const (
	lookupLeader lookupState = iota
	lookupCoalesced
	lookupCached
	lookupRefused
)

// stored is the done channel of a call answered from the store.
var stored = func() chan struct{} {
	done := make(chan struct{})
	close(done)
	return done
}()

// lookup resolves the question against the store, the in-flight table and
// the queue under one lock acquisition: a stored record (a bit-only one
// included, answered without a queue slot), an existing call to coalesce
// onto, a freshly enqueued leader call, or a refusal (draining / queue
// full). run stores a verdict and retires its call under one acquisition
// too, so a submit always finds one or the other. For a stored record the
// returned call carries only rec and is already done.
func (s *Service) lookup(rq *resolved) (*call, lookupState, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Submitted++
	obsSubmissions.Inc()
	if rec, ok := rq.store.Get(rq.fp); ok {
		if rec.RunID == "" {
			s.stats.WarmHits++
		} else {
			s.stats.CacheHits++
		}
		return &call{rec: rec, done: stored}, lookupCached, http.StatusOK
	}
	if c, ok := s.inflight[rq.question]; ok {
		s.stats.Coalesced++
		return c, lookupCoalesced, http.StatusOK
	}
	if s.draining {
		s.stats.Refused++
		return nil, lookupRefused, http.StatusServiceUnavailable
	}
	c := &call{resolved: rq, runID: obs.NewRunID(), enqueued: time.Now(), done: make(chan struct{})}
	select {
	case s.queue <- c:
	default:
		s.stats.Refused++
		return nil, lookupRefused, http.StatusServiceUnavailable
	}
	s.inflight[rq.question] = c
	return c, lookupLeader, http.StatusOK
}

func refusalText(status int, draining bool) string {
	if draining {
		return "service is draining; retry against another instance"
	}
	return "request queue is full; retry"
}

// wait parks on the call until the verdict lands or the caller's budget
// expires, then answers rq. A timed-out waiter does not cancel the leader —
// the search completes and populates the store, so the retry is free.
func (s *Service) wait(c *call, rq *resolved, state lookupState, t0 time.Time) (*AdmitResponse, int) {
	var timeout <-chan time.Time
	// A stored answer is ready: no expired budget may race it in the select.
	if state != lookupCached && !rq.deadline.IsZero() {
		t := time.NewTimer(time.Until(rq.deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-c.done:
	case <-timeout:
		s.countError()
		return &AdmitResponse{
			Error:     "deadline exceeded while the verification runs; retry for the cached verdict",
			ElapsedMs: msSince(t0),
		}, http.StatusGatewayTimeout
	}
	resp, status := rq.answer(c)
	resp.Cached = state == lookupCached
	resp.Coalesced = state == lookupCoalesced
	resp.ElapsedMs = msSince(t0)
	return resp, status
}

// answer shapes a finished call's outcome as the response to rq.
func (rq *resolved) answer(c *call) (*AdmitResponse, int) {
	if c.err != nil {
		return &AdmitResponse{Error: c.err.Error(), RunID: c.runID}, c.status
	}
	v := rq.verdict(c.rec)
	return &AdmitResponse{Verdict: &v, Warm: c.rec.RunID == "", RunID: c.rec.RunID}, http.StatusOK
}

// verdict shapes a stored record as rq's verdict. A bit-only record has no
// counts and no violator. A search's violator is reported where rq holds
// that profile: at its stored position when rq has an equal profile there —
// the leader always does, so its verdict is the engine's — else at rq's
// first equal profile, under rq's name for it.
func (rq *resolved) verdict(rec mapping.Record) Verdict {
	if rec.RunID == "" {
		return Verdict{Schedulable: rec.Schedulable, Violator: -1}
	}
	at := rec.Violator
	if !rec.Schedulable && at >= 0 && (at >= len(rq.profiles) || mapping.ProfileKey(rq.profiles[at]) != rec.ViolatorKey) {
		at = slices.IndexFunc(rq.profiles, func(p *switching.Profile) bool { return mapping.ProfileKey(p) == rec.ViolatorKey })
	}
	return VerdictOf(verify.Result{
		Schedulable: rec.Schedulable, States: rec.States, Transitions: rec.Transitions,
		Depth: rec.Depth, Violator: at,
	}, rq.names)
}

// recordOf is the stored form of a search's result over ps.
func recordOf(res verify.Result, ps []*switching.Profile, runID string) mapping.Record {
	rec := mapping.Record{
		Schedulable: res.Schedulable, States: res.States, Transitions: res.Transitions,
		Depth: res.Depth, RunID: runID, Violator: res.Violator,
	}
	if !res.Schedulable && res.Violator >= 0 && res.Violator < len(ps) {
		rec.ViolatorKey = mapping.ProfileKey(ps[res.Violator])
	}
	return rec
}

// submitAsync registers the question as a pollable job. Async submits
// coalesce with sync ones — the job may share its call.
func (s *Service) submitAsync(req *AdmitRequest) (*AdmitResponse, int) {
	rq, status, err := s.resolve(req)
	if err != nil {
		s.countError()
		return &AdmitResponse{Error: err.Error()}, status
	}
	c, state, status := s.lookup(rq)
	if state == lookupRefused {
		return &AdmitResponse{Error: refusalText(status, s.Draining())}, status
	}
	s.mu.Lock()
	s.jobSeq++
	j := &job{id: fmt.Sprintf("j%d", s.jobSeq), rq: rq, c: c}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.pruneJobsLocked()
	s.mu.Unlock()
	return &AdmitResponse{Job: j.id, Status: "pending"}, http.StatusAccepted
}

// pruneJobsLocked evicts the oldest completed jobs beyond maxJobs.
func (s *Service) pruneJobsLocked() {
	for len(s.jobs) > maxJobs {
		evicted := false
		for i, id := range s.jobOrder {
			j, ok := s.jobs[id]
			if !ok {
				continue
			}
			select {
			case <-j.c.done:
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i:i], s.jobOrder[i+1:]...)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			return // everything pending; let the table run hot
		}
	}
}

// jobStatus reports an async job's state without blocking.
func (s *Service) jobStatus(id string) (*AdmitResponse, int) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return &AdmitResponse{Error: "unknown job " + id}, http.StatusNotFound
	}
	select {
	case <-j.c.done:
		resp, status := j.rq.answer(j.c)
		resp.Job, resp.Status = id, "done"
		if j.c.err != nil {
			resp.Status = "error"
		}
		return resp, status
	default:
		return &AdmitResponse{Job: id, Status: "pending"}, http.StatusOK
	}
}

// worker drains the leader queue until Drain closes it.
func (s *Service) worker() {
	defer s.workers.Done()
	for c := range s.queue {
		s.run(c)
	}
}

// run executes one leader call on the backend, then stores the verdict,
// retires the call and wakes the waiters. Errors are published but never
// stored.
func (s *Service) run(c *call) {
	obsQueueWait.Observe(time.Since(c.enqueued).Seconds())
	var res verify.Result
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		c.err, c.status = errors.New("request budget exhausted while queued"), http.StatusServiceUnavailable
	} else {
		s.mu.Lock()
		s.stats.Verifications++
		s.mu.Unlock()
		cfg := c.cfg
		cfg.RunID = c.runID
		t := time.Now()
		var err error
		res, err = s.verify(c.profiles, cfg)
		obsBackendRun.Observe(time.Since(t).Seconds())
		if err != nil {
			c.err, c.status = err, s.statusOf(err)
		}
	}

	s.mu.Lock()
	delete(s.inflight, c.question)
	if c.err == nil {
		c.rec = recordOf(res, c.profiles, c.runID)
		c.store.Put(c.fp, c.rec)
	} else {
		s.stats.Errors++
	}
	s.mu.Unlock()
	close(c.done)
}

// statusOf classifies a verification error: budget and encoding problems
// are the request's fault; anything else from an attached cluster is a
// bad gateway (every worker dead — the error names a node).
func (s *Service) statusOf(err error) int {
	switch {
	case errors.Is(err, verify.ErrTooLarge):
		return http.StatusUnprocessableEntity
	case errors.Is(err, verify.ErrEncoding):
		return http.StatusBadRequest
	case s.opts.Backend != nil:
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

func (s *Service) countError() {
	s.mu.Lock()
	s.stats.Errors++
	s.mu.Unlock()
}

// cacheFor returns (creating and warm-loading on first use) the verdict
// store of one config salt. The shards load outside the lock; of two
// first submits racing on one salt, the first to finish loading wins.
func (s *Service) cacheFor(cfgKey uint64) *mapping.Cache {
	s.mu.Lock()
	c, ok := s.caches[cfgKey]
	s.mu.Unlock()
	if ok {
		return c
	}
	c = mapping.NewCacheFor(cfgKey)
	if s.opts.CacheDir != "" {
		// A bad shard is skipped, not fatal: the healthy shards still
		// warm-start, and the damage is logged for the operator.
		n, err := c.LoadDir(s.opts.CacheDir)
		if err != nil {
			s.opts.Logf("admit: unreadable cache shards for cfg %016x skipped: %v", cfgKey, err)
		}
		if n > 0 {
			s.opts.Logf("admit: warm start: %d verdicts from %d shards (cfg %016x)", c.Len(), n, cfgKey)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.caches[cfgKey]; ok {
		return prev
	}
	s.caches[cfgKey] = c
	return c
}

// Checkpoint incrementally persists every config's dirty cache shards,
// returning the number of shard files rewritten.
func (s *Service) Checkpoint() (int, error) {
	if s.opts.CacheDir == "" {
		return 0, nil
	}
	s.mu.Lock()
	caches := make([]*mapping.Cache, 0, len(s.caches))
	for _, c := range s.caches {
		caches = append(caches, c)
	}
	s.mu.Unlock()
	total := 0
	var first error
	for _, c := range caches {
		n, err := c.SaveDir(s.opts.CacheDir)
		total += n
		if err != nil && first == nil {
			first = err
		}
	}
	return total, first
}

func (s *Service) checkpointLoop() {
	t := time.NewTicker(s.opts.Checkpoint)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n, err := s.Checkpoint(); err != nil {
				s.opts.Logf("admit: checkpoint: %v", err)
			} else if n > 0 {
				s.opts.Logf("admit: checkpointed %d cache shard(s)", n)
			}
		case <-s.stopCk:
			return
		}
	}
}

// Drain refuses new submits (503 + Retry-After), lets in-flight verdicts
// run to completion, checkpoints the verdict store, and returns.
// Idempotent; concurrent callers all block until the drain completes.
func (s *Service) Drain() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		close(s.stopCk)
		// No submit can enqueue after draining=true was published under
		// the lock, and every earlier enqueue completed before we took
		// it, so closing the intake here is race-free.
		close(s.queue)
		s.workers.Wait()
		if _, err := s.Checkpoint(); err != nil {
			s.opts.Logf("admit: final checkpoint: %v", err)
		}
		close(s.drained)
		s.opts.Logf("admit: drained")
	})
	<-s.drained
}

// Draining reports whether the service is refusing new submits.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats are the /statsz counters.
type Stats struct {
	UptimeSec     float64 `json:"uptimeSec"`
	Backend       string  `json:"backend"`
	Submitted     int     `json:"submitted"`
	Verifications int     `json:"verifications"`
	Coalesced     int     `json:"coalesced"`
	CacheHits     int     `json:"cacheHits"` // answered from a stored search
	WarmHits      int     `json:"warmHits"`  // answered from a bit-only record
	Refused       int     `json:"refused"`
	Errors        int     `json:"errors"`
	// LocalFallbacks counts the verdicts the local engine served for a
	// failed backend (zero unless LocalFallback is set).
	LocalFallbacks int  `json:"localFallbacks,omitempty"`
	QueueDepth     int  `json:"queueDepth"`
	Inflight       int  `json:"inflight"`
	Jobs           int  `json:"jobs"`
	PersistentLen  int  `json:"persistentVerdicts"` // stored verdicts across configs
	Draining       bool `json:"draining"`
	// Latency summaries; the full bucketed histograms live in /metricsz.
	QueueWait  *TimingStats           `json:"queueWait,omitempty"`
	BackendRun *TimingStats           `json:"backendRun,omitempty"`
	Latency    map[string]TimingStats `json:"admitLatency,omitempty"` // per config salt
}

// ServiceStats snapshots the counters.
func (s *Service) ServiceStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.UptimeSec = time.Since(s.start).Seconds()
	st.Backend = s.opts.BackendDesc
	if st.Backend == "" {
		st.Backend = "local engine"
	}
	st.QueueDepth = len(s.queue)
	st.Inflight = len(s.inflight)
	st.Jobs = len(s.jobs)
	for _, c := range s.caches {
		st.PersistentLen += c.Len()
	}
	st.Draining = s.draining
	st.QueueWait = timingOf(obsQueueWait)
	st.BackendRun = timingOf(obsBackendRun)
	for k, h := range s.lat {
		if t := timingOf(h); t != nil {
			if st.Latency == nil {
				st.Latency = map[string]TimingStats{}
			}
			st.Latency[fmt.Sprintf("%016x", k)] = *t
		}
	}
	return st
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1000
}
