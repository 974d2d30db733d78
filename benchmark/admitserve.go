package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"tightcps/internal/admit"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// admitBody is one POST /v1/admit body with the verdict it must produce.
type admitBody struct {
	name string
	body []byte
	want admit.Verdict
}

// wantVerdict is the wire form of a slot case's pin as the service reports
// it: Workers ≥ 2 always, so a violation carries the parallel engines'
// minimum-state violator and no counts.
func wantVerdict(c slotCase) admit.Verdict {
	if c.want.schedulable {
		return admit.Verdict{Schedulable: true, States: c.want.states, Depth: c.want.depth, Violator: -1}
	}
	return admit.Verdict{Depth: c.want.depth, Violator: c.want.parViolator, ViolatorName: c.profiles[c.want.parViolator].Name}
}

func (b admitBody) check(resp *admit.AdmitResponse, err error) error {
	switch {
	case err != nil:
		return err
	case resp.Verdict == nil:
		return fmt.Errorf("no verdict: %s", resp.Error)
	}
	got := *resp.Verdict
	got.Transitions = 0 // not pinned
	if got != b.want {
		return fmt.Errorf("verdict %+v, want %+v", got, b.want)
	}
	return nil
}

// byName is the body that names case-study applications; inline carries the
// profiles themselves, in the given order.
func byName(c slotCase) admitBody {
	body, _ := json.Marshal(admit.AdmitRequest{Apps: c.apps}) // strings and ints: cannot fail
	return admitBody{name: c.name, body: body, want: wantVerdict(c)}
}

func inline(c slotCase, order []int) admitBody {
	req := admit.AdmitRequest{Config: verify.Spec{Symmetry: c.symmetry}}
	for _, i := range order {
		req.Profiles = append(req.Profiles, admit.ProfileJSONOf(c.profiles[i]))
	}
	body, _ := json.Marshal(req) // strings and ints: cannot fail
	return admitBody{name: c.name + " inline", body: body, want: wantVerdict(c)}
}

// backendTimer is the Options.Backend wrapper: verify.Slot, timed from
// outside, with a span under whichever request is the current leader.
type backendTimer struct {
	mu      sync.Mutex
	sp      *spanRec
	parent  int
	op      int
	runs    int
	seconds float64
}

func (b *backendTimer) verify(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
	b.mu.Lock()
	sp, parent, op := b.sp, b.parent, b.op
	b.mu.Unlock()
	id := sp.begin("verify.slot", parent, op)
	t := time.Now()
	res, err := verify.Slot(ps, cfg)
	d := time.Since(t).Seconds()
	sp.end(id)
	b.mu.Lock()
	b.runs++
	b.seconds += d
	b.mu.Unlock()
	return res, err
}

// under hangs the backend spans of the requests that follow under parent.
func (b *backendTimer) under(sp *spanRec, parent, op int) {
	b.mu.Lock()
	b.sp, b.parent, b.op = sp, parent, op
	b.mu.Unlock()
}

func (b *backendTimer) totals() (runs int, seconds float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs, b.seconds
}

// frontDoor is one fresh admission service behind a real HTTP listener.
type frontDoor struct {
	svc     *admit.Service
	srv     *httptest.Server
	backend *backendTimer
}

func openFrontDoor() *frontDoor {
	b := &backendTimer{parent: -1}
	svc := admit.New(admit.Options{Workers: 2, Backend: b.verify})
	return &frontDoor{svc: svc, srv: httptest.NewServer(svc.Handler()), backend: b}
}

func (f *frontDoor) close() {
	f.srv.Close()
	f.svc.Drain()
}

// post sends one body and returns the decoded response and the latency of
// the exchange (decoding excluded).
func post(c *http.Client, url string, body []byte) (*admit.AdmitResponse, float64, error) {
	t := time.Now()
	resp, err := c.Post(url+"/v1/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t).Seconds()
	if err != nil {
		return nil, d, err
	}
	var out admit.AdmitResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return &out, d, fmt.Errorf("HTTP %d: %s", resp.StatusCode, out.Error)
	}
	return &out, d, nil
}

// permutations returns n distinct orderings of k items, chosen by seed.
func permutations(k, n int, seed int64) [][]int {
	var all [][]int
	var rec func(prefix, rest []int)
	rec = func(prefix, rest []int) {
		if len(rest) == 0 {
			all = append(all, append([]int(nil), prefix...))
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			rec(append(prefix, rest[i]), next)
		}
	}
	items := make([]int, k)
	for i := range items {
		items[i] = i
	}
	rec(nil, items)
	rand.New(rand.NewSource(seed)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:min(n, len(all))]
}

// runAdmitServe drives POST /v1/admit in three phases per round: cold (a
// fresh service answers S1 by name, S2, V5 and F9 as inline profiles), hit
// (the same four bodies round-robin from keep-alive clients against the
// now-warm service), coalesced (a fresh service receives S1's inline
// profiles in 8 permutations at once).
func runAdmitServe(e *env) error {
	cs, err := loadSlotCases(e.smoke)
	if err != nil {
		return err
	}
	s1 := byName(cs.s1)
	cold := []admitBody{s1, byName(cs.small), byName(cs.viol)}
	order := make([]int, len(cs.sym.profiles))
	for i := range order {
		order[i] = i
	}
	f9 := inline(cs.sym, order)
	cold = append(cold, f9)
	var fanIn []admitBody
	for _, perm := range permutations(len(cs.s1.profiles), 8, e.seed) {
		fanIn = append(fanIn, inline(cs.s1, perm))
	}
	clients := min(runtime.GOMAXPROCS(0), 4)
	batch := 10000
	if e.smoke {
		batch = 200
	}
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	defer httpc.CloseIdleConnections()

	coldPhase := func(sp *spanRec, record bool) *frontDoor {
		op := e.newOp()
		fd := openFrontDoor()
		for _, b := range cold {
			root := sp.begin("op.admit_cold:"+b.name, -1, op)
			req := sp.begin("admit.http", root, op)
			fd.backend.under(sp, req, op)
			_, before := fd.backend.totals()
			resp, d, err := post(httpc, fd.srv.URL, b.body)
			sp.end(req)
			sp.end(root)
			if err == nil && resp.Cached {
				err = errors.New("a fresh service answered from its cache")
			}
			e.check("cold "+b.name, b.check(resp, err))
			switch {
			case !record:
			case sp == nil && b.name == s1.name:
				e.rec.add("op.admit_cold_ms", 1000*d)
				e.rec.add("cold_ms", 1000*d)
			case sp == nil && b.name == f9.name:
				e.rec.add("admit.inline_cold_ms", 1000*d)
			case sp != nil && b.name == s1.name:
				_, after := fd.backend.totals()
				e.rec.add("admit.cold_overhead_ms", 1000*(d-(after-before)))
				e.rec.add("bench.attributed_pct", 100*sp.covered(root)/sp.get(root).dur())
			}
		}
		if record && sp != nil {
			runs, seconds := fd.backend.totals()
			e.rec.add("admit.backend_s", seconds)
			e.rec.add("admit.backend_runs", float64(runs))
			e.rec.add("verify.slot_s", seconds)
			e.rec.add("verify.calls", float64(runs))
		}
		return fd
	}

	// hitPhase sends the batch from the keep-alive clients; every response
	// must come from the verdict cache.
	hitPhase := func(fd *frontDoor, record bool) {
		lat := make([][]float64, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		t := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lat[c] = make([]float64, 0, batch/clients+1)
				for i := c; i < batch; i += clients {
					b := cold[i%len(cold)]
					resp, d, err := post(httpc, fd.srv.URL, b.body)
					if err == nil && !resp.Cached {
						err = errors.New("a warm service ran a verification")
					}
					if err = b.check(resp, err); err != nil && errs[c] == nil {
						errs[c] = err
					}
					lat[c] = append(lat[c], d)
				}
			}()
		}
		wg.Wait()
		wall := time.Since(t).Seconds()
		e.check(fmt.Sprintf("hit batch of %d", batch), errors.Join(errs...))
		if !record {
			return
		}
		var all []float64
		for _, l := range lat {
			all = append(all, l...)
		}
		sort.Float64s(all)
		e.rec.add("op.admit_hit_p50_us", 1e6*percentile(all, 0.50))
		e.rec.add("admit.hit_p99_us", 1e6*percentile(all, 0.99))
		e.rec.add("op.admit_hit_rps", float64(batch)/wall)
	}

	coalescedPhase := func(sp *spanRec, record bool) {
		op := e.newOp()
		fd := openFrontDoor()
		defer fd.close()
		root := sp.begin("op.admit_coalesced", -1, op)
		fd.backend.under(sp, root, op)
		resps := make([]*admit.AdmitResponse, len(fanIn))
		errs := make([]error, len(fanIn))
		var wg sync.WaitGroup
		t := time.Now()
		for i, b := range fanIn {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resps[i], _, errs[i] = post(httpc, fd.srv.URL, b.body)
			}()
		}
		wg.Wait()
		d := time.Since(t).Seconds()
		sp.end(root)
		for i, b := range fanIn {
			errs[i] = b.check(resps[i], errs[i])
		}
		// The submits are fingerprint-equal, so the service may run the
		// backend once; a submit that arrives after the leader finished is
		// a cache hit instead of a coalesced waiter, which is as correct.
		st := fd.svc.ServiceStats()
		if st.Verifications != 1 || st.Coalesced+st.CacheHits != len(fanIn)-1 {
			errs = append(errs, fmt.Errorf("%d submits: %d backend runs, %d coalesced, %d cache hits",
				len(fanIn), st.Verifications, st.Coalesced, st.CacheHits))
		}
		e.check("coalesced round", errors.Join(errs...))
		if record && sp == nil {
			e.rec.add("op.admit_coalesced_ms", 1000*d)
			e.rec.add("admit.coalesced", float64(st.Coalesced))
		}
	}

	round := func(sp *spanRec, record bool) {
		fd := coldPhase(sp, record)
		hitPhase(fd, record && sp == nil)
		fd.close()
		coalescedPhase(sp, record)
	}

	round(nil, false) // warm-up
	e.beginWindow()
	e.rounds(func(sp *spanRec) { round(sp, true) })
	if e.traced {
		fd := coldPhase(nil, false)
		admitProbes(e, fd, httpc, s1)
		fd.close()
	}
	return nil
}

// admitProbes are the per-layer rows of a warm service: the cached path
// without HTTP, a /metricsz scrape, and the queue wait of its leader calls.
func admitProbes(e *env, fd *frontDoor, httpc *http.Client, hot admitBody) {
	var req admit.AdmitRequest
	if err := json.Unmarshal(hot.body, &req); err != nil {
		e.check("direct hit", err)
		return
	}
	n := 10000
	if e.smoke {
		n = 200
	}
	direct := make([]float64, 0, n)
	var derr error
	for i := 0; i < n; i++ {
		t := time.Now()
		resp, status := fd.svc.Admit(&req)
		direct = append(direct, time.Since(t).Seconds())
		if status != http.StatusOK || !resp.Cached {
			derr = fmt.Errorf("direct Admit: status %d, cached=%v", status, resp.Cached)
		}
	}
	e.check("direct hit", derr)
	sort.Float64s(direct)
	p50 := 1e6 * percentile(direct, 0.50)
	e.rec.add("admit.direct_hit_us", p50)
	e.rec.add("admit.http_self_us", e.rec.median("op.admit_hit_p50_us")-p50)

	var scrape []float64
	var size int
	var serr error
	for i := 0; i < 20; i++ {
		t := time.Now()
		resp, err := httpc.Get(fd.srv.URL + "/metricsz")
		if err != nil {
			serr = err
			break
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		scrape = append(scrape, time.Since(t).Seconds())
		if err != nil || resp.StatusCode != http.StatusOK || len(raw) == 0 {
			serr = fmt.Errorf("GET /metricsz: status %d, %d bytes, %v", resp.StatusCode, len(raw), err)
		}
		size = len(raw)
	}
	e.check("/metricsz scrape", serr)
	sort.Float64s(scrape)
	e.rec.add("obs.metricsz_scrape_us", 1e6*percentile(scrape, 0.50))
	e.rec.add("obs.metricsz_bytes", float64(size))

	// The queue-wait histogram is process-wide and cumulative, so its mean
	// covers every leader call of this run so far.
	if qw := fd.svc.ServiceStats().QueueWait; qw != nil {
		e.rec.add("admit.queue_wait_ms", qw.MeanMs)
	}
}
