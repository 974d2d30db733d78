package admit

// End-to-end equivalence: every HTTP verdict must be byte-identical to
// the in-process engine's, across the whole backend matrix — the paper's
// S1/S2 slots, violating synthetics, up to states that fill the word,
// with and without the symmetry quotient. Plus the service semantics riding the
// same rig: cache hits, warm starts, async jobs, stats, validation.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tightcps/internal/mapping"
	"tightcps/internal/obs"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// equivalenceCases: schedulable and violating sets. S1 (1 440 712 states)
// is the paper's hardest verification; the sym cases run the quotient.
// Sets past the one-word state are validationCases rows.
var equivalenceCases = []struct {
	name string
	apps []string // named case-study slot, or
	ps   func() []*switching.Profile
	spec verify.Spec
}{
	{name: "S2", apps: []string{"C6", "C2"}},
	{name: "S1", apps: []string{"C1", "C5", "C4", "C3"}},
	{name: "overloadNarrow", ps: func() []*switching.Profile {
		return []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}
	}},
	{name: "narrowSym", ps: func() []*switching.Profile { return fleet(6, 5, 2, 4, 20) },
		spec: verify.Spec{Symmetry: true}},
	{name: "fleet7Sym", ps: func() []*switching.Profile { return fleet(7, 6, 1, 2, 10) },
		spec: verify.Spec{Symmetry: true}},
}

// TestServiceVerdictEquivalence is the tentpole assertion: one service
// per backend, every case submitted twice — the first answer byte-equal
// to the local engine's verdict JSON, the second a cache hit carrying the
// identical bytes.
func TestServiceVerdictEquivalence(t *testing.T) {
	for _, bc := range backendMatrix {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			r := newRig(t, bc, nil)
			for _, tc := range equivalenceCases {
				var req *AdmitRequest
				var ps []*switching.Profile
				var names []string
				if tc.apps != nil {
					ps = caseProfiles(t, tc.apps...)
					names = tc.apps
					req = &AdmitRequest{Apps: tc.apps, Config: tc.spec}
				} else {
					ps = tc.ps()
					names = namesOf(ps)
					req = inlineReq(ps, tc.spec)
				}
				want := localVerdictJSON(t, ps, tc.spec, names)

				status, resp, gotVerdict := r.submit(t, req)
				if status != http.StatusOK {
					t.Fatalf("%s: HTTP %d (%s)", tc.name, status, resp.Error)
				}
				if resp.Cached || resp.Warm {
					t.Fatalf("%s: first submit served from cache", tc.name)
				}
				if !bytes.Equal(gotVerdict, want) {
					t.Errorf("%s: verdict over %s diverges from local engine:\n got %s\nwant %s",
						tc.name, bc.name, gotVerdict, want)
				}

				status, resp, cachedVerdict := r.submit(t, req)
				if status != http.StatusOK || !resp.Cached {
					t.Fatalf("%s: second identical submit: HTTP %d cached=%v", tc.name, status, resp.Cached)
				}
				if !bytes.Equal(cachedVerdict, want) {
					t.Errorf("%s: cached verdict diverges:\n got %s\nwant %s", tc.name, cachedVerdict, want)
				}
			}
		})
	}
}

// TestServiceOrderIndependence: permutations of one profile set are one
// admission question — the second order must hit the cache and, the set
// being schedulable, answer with the identical verdict bytes (a violating
// set's violator is reported in each requester's order:
// TestServicePermutedViolator).
func TestServiceOrderIndependence(t *testing.T) {
	r := newRig(t, backendCase{name: "local"}, nil)
	ps := []*switching.Profile{prof("A", 2, 2, 3, 15), prof("B", 6, 2, 4, 25), prof("C", 9, 3, 5, 30)}
	status, _, first := r.submit(t, inlineReq(ps, verify.Spec{}))
	if status != http.StatusOK {
		t.Fatalf("HTTP %d", status)
	}
	perm := []*switching.Profile{ps[2], ps[0], ps[1]}
	status, resp, second := r.submit(t, inlineReq(perm, verify.Spec{}))
	if status != http.StatusOK || !resp.Cached {
		t.Fatalf("permuted resubmit: HTTP %d cached=%v", status, resp.Cached)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("permuted resubmit verdict diverges:\n got %s\nwant %s", second, first)
	}
}

// TestServiceIgnoresBoundedConfig: the bounded-disturbance model is gone,
// so a config that still asks for it ("bounded", "maxDisturbances") has
// those keys skipped like any unknown key and gets the exact verdict: the
// same verdict bytes and the same store key as the body without them, and
// the second of the two submits is a cache hit.
func TestServiceIgnoresBoundedConfig(t *testing.T) {
	r := newRig(t, backendCase{name: "local"}, nil)
	withBound := `{"apps":["C6","C2"],"config":{"bounded":true,"maxDisturbances":2,"symmetry":false}}`
	without := `{"apps":["C6","C2"],"config":{"symmetry":false}}`
	var questions [2]question
	for i, body := range []string{withBound, without} {
		var req AdmitRequest
		if err := decodeRequest(strings.NewReader(body), &req); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		rq, _, err := r.svc.resolve(&req)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		questions[i] = rq.question
	}
	if questions[0] != questions[1] {
		t.Fatalf("store keys differ: %+v with the bound, %+v without", questions[0], questions[1])
	}
	want := localVerdictJSON(t, caseProfiles(t, "C6", "C2"), verify.Spec{}, []string{"C6", "C2"})
	status, resp, first := r.submitRaw(t, withBound)
	if status != http.StatusOK || resp.Cached {
		t.Fatalf("first submit: HTTP %d cached=%v (%s)", status, resp.Cached, resp.Error)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("verdict with the bound keys:\n got %s\nwant %s", first, want)
	}
	status, resp, second := r.submitRaw(t, without)
	if status != http.StatusOK || !resp.Cached {
		t.Fatalf("submit without the bound keys: HTTP %d cached=%v, want a cache hit", status, resp.Cached)
	}
	if !bytes.Equal(second, first) {
		t.Fatalf("verdict without the bound keys:\n got %s\nwant %s", second, first)
	}
}

// TestServicePermutedViolator: a violating set's verdict names its violator
// in the requester's own order and under the requester's own name — for a
// permuted waiter coalesced onto the leader, a permuted repeat answered
// from the store, and an inline copy under other names. Each response's
// violator index points at the application it names, and that application
// is the leader's violator by content.
func TestServicePermutedViolator(t *testing.T) {
	var runs atomic.Int32
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // a failure before the release must not hold the leader
	r := newRig(t, backendCase{name: "gated"}, func(o *Options) {
		o.Backend = func(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
			runs.Add(1)
			<-gate
			return verify.Slot(ps, cfg)
		}
	})
	v5 := caseProfiles(t, "C1", "C5", "C4", "C3", "C6")
	c4 := mapping.ProfileKey(v5[2]) // the parallel engines' minimal violator of V5

	check := func(label string, ps []*switching.Profile, names []string, resp *AdmitResponse, wantAt int) {
		t.Helper()
		v := resp.Verdict
		switch {
		case v == nil || v.Schedulable:
			t.Fatalf("%s: verdict %+v (%s), want a violation", label, v, resp.Error)
		case v.Violator != wantAt || v.ViolatorName != names[wantAt]:
			t.Fatalf("%s: violator %d %q, want %d %q", label, v.Violator, v.ViolatorName, wantAt, names[wantAt])
		case mapping.ProfileKey(ps[v.Violator]) != c4:
			t.Fatalf("%s: violator %q is not the leader's by content", label, v.ViolatorName)
		}
	}
	byName := func(apps ...string) ([]*switching.Profile, []string, *AdmitRequest) {
		return caseProfiles(t, apps...), apps, &AdmitRequest{Apps: apps}
	}

	type outcome struct {
		status int
		resp   *AdmitResponse
	}
	submit := func(req *AdmitRequest) <-chan outcome {
		out := make(chan outcome, 1)
		go func() {
			status, resp, _ := r.submit(t, req)
			out <- outcome{status, resp}
		}()
		return out
	}
	waitStats := func(what string, ok func(Stats) bool) {
		deadline := time.Now().Add(30 * time.Second)
		for !ok(r.svc.ServiceStats()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %+v", what, r.svc.ServiceStats())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	leaderPs, leaderNames, leaderReq := byName("C1", "C5", "C4", "C3", "C6")
	leader := submit(leaderReq)
	waitStats("the leader never reached the backend", func(st Stats) bool { return runs.Load() == 1 })
	waiterPs, waiterNames, waiterReq := byName("C3", "C6", "C1", "C4", "C5")
	waiter := submit(waiterReq)
	waitStats("the permuted submit never coalesced", func(st Stats) bool { return st.Coalesced == 1 })
	release()

	got := <-leader
	if got.status != http.StatusOK {
		t.Fatalf("leader: HTTP %d (%s)", got.status, got.resp.Error)
	}
	check("leader", leaderPs, leaderNames, got.resp, 2)
	if got = <-waiter; got.status != http.StatusOK || !got.resp.Coalesced {
		t.Fatalf("permuted waiter: HTTP %d coalesced=%v", got.status, got.resp.Coalesced)
	}
	check("coalesced permuted waiter", waiterPs, waiterNames, got.resp, 3)

	ps, names, req := byName("C4", "C1", "C5", "C3", "C6")
	status, resp, _ := r.submit(t, req)
	if status != http.StatusOK || !resp.Cached {
		t.Fatalf("permuted repeat: HTTP %d cached=%v", status, resp.Cached)
	}
	check("stored permuted repeat", ps, names, resp, 0)

	ps = []*switching.Profile{v5[1], v5[2], v5[3], v5[4], v5[0]} // C5 C4 C3 C6 C1
	renamed := inlineReq(ps, verify.Spec{})
	for i := range renamed.Profiles {
		renamed.Profiles[i].Name = fmt.Sprintf("X%d", i)
	}
	status, resp, _ = r.submit(t, renamed)
	if status != http.StatusOK || !resp.Cached {
		t.Fatalf("renamed inline copy: HTTP %d cached=%v", status, resp.Cached)
	}
	check("renamed inline copy", ps, []string{"X0", "X1", "X2", "X3", "X4"}, resp, 1)
	if n := runs.Load(); n != 1 {
		t.Fatalf("the backend ran %d times for one question", n)
	}
}

// TestServiceAsyncJob: an async submit returns 202 + a job id, the job
// polls to done with the same verdict bytes a sync submit yields, and
// unknown jobs are 404.
func TestServiceAsyncJob(t *testing.T) {
	r := newRig(t, backendCase{name: "local"}, nil)
	ps := fleet(3, 6, 1, 2, 10)
	want := localVerdictJSON(t, ps, verify.Spec{}, namesOf(ps))

	req := inlineReq(ps, verify.Spec{})
	req.Async = true
	status, resp, _ := r.submit(t, req)
	if status != http.StatusAccepted || resp.Job == "" {
		t.Fatalf("async submit: HTTP %d job=%q", status, resp.Job)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		hr, err := http.Get(r.ts.URL + "/v1/jobs/" + resp.Job)
		if err != nil {
			t.Fatal(err)
		}
		var jr struct {
			Status     string          `json:"status"`
			Error      string          `json:"error"`
			RawVerdict json.RawMessage `json:"verdict"`
		}
		if err := json.NewDecoder(hr.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if jr.Status == "done" {
			if !bytes.Equal([]byte(jr.RawVerdict), want) {
				t.Fatalf("async verdict diverges:\n got %s\nwant %s", jr.RawVerdict, want)
			}
			break
		}
		if jr.Status != "pending" {
			t.Fatalf("job status %q (%s)", jr.Status, jr.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("async job never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	hr, err := http.Get(r.ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", hr.StatusCode)
	}
}

// TestServiceStatsAndHealth: the counters move and /healthz answers.
func TestServiceStatsAndHealth(t *testing.T) {
	r := newRig(t, backendCase{name: "local"}, nil)
	req := inlineReq(fleet(2, 8, 2, 4, 40), verify.Spec{})
	for i := 0; i < 3; i++ {
		if status, _, _ := r.submit(t, req); status != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d", i, status)
		}
	}
	st, err := r.cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 3 || st.Verifications != 1 || st.CacheHits != 2 {
		t.Fatalf("stats after 3 identical submits: %+v", st)
	}
	if st.Backend != "local engine" || st.Draining {
		t.Fatalf("stats identity: %+v", st)
	}
	hr, err := http.Get(r.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", hr.StatusCode)
	}
}

// TestServiceWarmStart: a drained service checkpoints its shard files; a
// fresh service over the same cache dir answers the admission bit from
// disk, marked warm, without a backend run.
func TestServiceWarmStart(t *testing.T) {
	dir := t.TempDir()
	ps := fleet(3, 6, 1, 2, 10)
	req := inlineReq(ps, verify.Spec{})

	r1 := newRig(t, backendCase{name: "local"}, func(o *Options) { o.CacheDir = dir })
	status, resp, _ := r1.submit(t, req)
	if status != http.StatusOK || !resp.Verdict.Schedulable {
		t.Fatalf("cold submit: HTTP %d %+v", status, resp.Verdict)
	}
	r1.svc.Drain()
	select {
	case <-r1.svc.drained:
	default:
		t.Fatal("Drain returned but the service is not drained")
	}

	r2 := newRig(t, backendCase{name: "local"}, func(o *Options) { o.CacheDir = dir })
	status, resp, _ = r2.submit(t, req)
	if status != http.StatusOK {
		t.Fatalf("warm submit: HTTP %d", status)
	}
	if !resp.Warm || resp.Verdict == nil || !resp.Verdict.Schedulable {
		t.Fatalf("warm submit not served from the persistent cache: %+v", resp)
	}
	if resp.Verdict.States != 0 || resp.Verdict.Violator != -1 {
		t.Fatalf("warm verdict invented search counts: %+v", resp.Verdict)
	}
	st, err := r2.cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Verifications != 0 || st.WarmHits != 1 {
		t.Fatalf("warm start ran a backend verification: %+v", st)
	}
}

// validationCases are TestServiceValidation's bodies and the answers they
// get: malformed and invalid submissions are 400s with a reason, and the
// decoder's edges — a case-folded key, trailing bytes, an unknown nested
// key — are accepted exactly as encoding/json accepts them.
var validationCases = []struct {
	name   string
	body   string
	status int
	want   string // in the 400's error, lower-cased
}{
	{"malformedJSON", `{`, 400, "malformed"},
	{"empty", `{}`, 400, "no profiles"},
	{"bothAppsAndProfiles", `{"apps":["C1"],"profiles":[{"r":5,"twStar":0,"tdwMinus":[1],"tdwPlus":[2]}]}`, 400, "both"},
	{"unknownApp", `{"apps":["C9"]}`, 400, "c9"},
	{"badPolicy", `{"apps":["C6","C2"],"config":{"policy":"chaotic"}}`, 400, "policy"},
	{"negativeBudget", `{"apps":["C6","C2"],"config":{"maxStates":-5}}`, 400, "negative"},
	{"badDwellTables", `{"profiles":[{"r":5,"twStar":3,"tdwMinus":[1],"tdwPlus":[2]}]}`, 400, "dwell"},
	{"badInterArrival", `{"profiles":[{"r":0,"twStar":0,"tdwMinus":[1],"tdwPlus":[2]}]}`, 400, "positive"},
	// Tables of the right length that hold no window: refused by the
	// engine (verify.ErrEncoding) before any verdict exists to cache.
	{"invertedDwellWindow", `{"profiles":[{"r":10,"twStar":2,"tdwMinus":[1,1,1],"tdwPlus":[2,2,2]},{"name":"B","r":10,"twStar":2,"tdwMinus":[1,5,1],"tdwPlus":[2,3,2]}]}`, 400, "b has no dwell window at row 1: tdw−=5, tdw+=3"},
	{"negativeDwellWindow", `{"profiles":[{"r":10,"twStar":2,"tdwMinus":[1,1,1],"tdwPlus":[2,2,2]},{"name":"B","r":10,"twStar":2,"tdwMinus":[1,1,-3],"tdwPlus":[2,2,-1]}]}`, 400, "b has no dwell window at row 2: tdw−=-3, tdw+=-1"},
	// Sets whose lanes and header pass 64 bits: refused by the engine
	// (verify.ErrEncoding), naming the limit — 7 apps at r = 65, with and
	// without the quotient, and 8 at r = 33.
	{"overloadWide", bodyOf(fleet(7, 2, 1, 2, 65), verify.Spec{}), 400, "one-word limit of 64"},
	{"wideSym", bodyOf(append(fleet(6, 6, 1, 2, 7), prof("X", 7, 1, 3, 65)), verify.Spec{Symmetry: true}), 400, "one-word limit of 64"},
	{"wide8", bodyOf(fleet(8, 2, 2, 4, 33), verify.Spec{}), 400, "one-word limit of 64"},
	// The decoder's edges, each as encoding/json decides it.
	{"caseFoldedKey", `{"APPS":["C6","C2"]}`, 200, ""},
	{"trailingBytes", `{"apps":["C6","C2"]} {"apps":["C9"]} ]`, 200, ""},
	{"nullBody", `null`, 400, "no profiles"},
	{"arrayBody", `[]`, 400, "malformed"},
	{"fractionalInt", `{"profiles":[{"r":5.0,"twStar":0,"tdwMinus":[1],"tdwPlus":[2]}]}`, 400, "malformed"},
	{"exponentInt", `{"profiles":[{"r":1e2,"twStar":0,"tdwMinus":[1],"tdwPlus":[2]}]}`, 400, "malformed"},
	{"unknownNestedKey", `{"apps":["C6","C2"],"extra":{"nested":[1,{"deeper":null}],"s":"x"}}`, 200, ""},
}

// bodyOf is the inline request body for ps under spec.
func bodyOf(ps []*switching.Profile, spec verify.Spec) string {
	b, err := json.Marshal(inlineReq(ps, spec))
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestServiceValidation: malformed submissions are 400s with a reason,
// and never reach the backend; the accepted edge rows all ask S2, which
// runs once.
func TestServiceValidation(t *testing.T) {
	r := newRig(t, backendCase{name: "local"}, nil)
	for _, tc := range validationCases {
		resp, raw := r.postRaw(t, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, raw)
			continue
		}
		var ar AdmitResponse
		if err := json.Unmarshal(raw, &ar); err != nil {
			t.Errorf("%s: undecodable %d body %q", tc.name, tc.status, raw)
			continue
		}
		if !strings.Contains(strings.ToLower(ar.Error), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, ar.Error, tc.want)
		}
		if tc.want == "malformed" && !strings.HasPrefix(ar.Error, "malformed request: ") {
			t.Errorf("%s: error %q lacks the malformed-request prefix", tc.name, ar.Error)
		}
	}
	st, err := r.cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Verifications != 1 {
		t.Fatalf("%d verifications, want S2's one: invalid submissions reached the backend? %+v", st.Verifications, st)
	}
}

// TestServiceLeavesNoTablesAfterLargeVerdict: a local S1 admission (1.4 M
// states on lanes) unmaps its lane tables as its search ends, so once the
// service drains the table-bytes gauge is back at zero, its value before
// the request, and the worker forced no collection to get there — nor
// after S2. An earlier test's cluster may still be unmapping its tables
// (closing one does not wait for its workers), so the test first waits for
// the gauge to reach zero.
func TestServiceLeavesNoTablesAfterLargeVerdict(t *testing.T) {
	tableBytes := func() int64 { return obs.Default.Snapshot()["tightcps_verify_table_bytes"].(int64) }
	for deadline := time.Now().Add(10 * time.Second); tableBytes() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d table bytes still mapped after 10 s, before any request", tableBytes())
		}
	}
	for _, apps := range [][]string{{"C6", "C2"}, {"C1", "C5", "C4", "C3"}} {
		r := newRig(t, backendCase{name: "local"}, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		status, resp, _ := r.submit(t, &AdmitRequest{Apps: apps})
		if status != http.StatusOK || !resp.Verdict.Schedulable {
			t.Fatalf("%v: HTTP %d %+v", apps, status, resp)
		}
		r.svc.Drain() // the worker is done with the search
		runtime.ReadMemStats(&after)
		if n := after.NumForcedGC - before.NumForcedGC; n != 0 {
			t.Errorf("%v: %d forced collections, want none", apps, n)
		}
		if got := tableBytes(); got != 0 {
			t.Errorf("%v: %d table bytes still mapped once drained", apps, got)
		}
	}
}

// TestServiceStateBudgetRefusal: a request whose search busts its state
// budget is a 422, and the budget-capped verdict is not served to
// uncapped submits (MaxStates salts the key).
func TestServiceStateBudgetRefusal(t *testing.T) {
	r := newRig(t, backendCase{name: "local"}, nil)
	ps := fleet(4, 8, 2, 4, 40) // 2.9M states, far over the budget below
	req := inlineReq(ps, verify.Spec{MaxStates: 1000})
	status, resp, _ := r.submit(t, req)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("busted budget: HTTP %d (%s)", status, resp.Error)
	}
	if !strings.Contains(resp.Error, "state") {
		t.Fatalf("busted budget error does not say why: %q", resp.Error)
	}
}

// TestServiceWorkersDefault: Options.Workers 0 searches on GOMAXPROCS lanes
// and a value below 2 on two, and the lane count never reaches the verdict
// bytes — the lanes' minimum-violator rule does not depend on it. That
// raise is the local engine's: an attached cluster gets Workers as given,
// its nodes run lanes whatever the value.
func TestServiceWorkersDefault(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	overload := []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}
	reqs := []*AdmitRequest{{Apps: []string{"C6", "C2"}}, inlineReq(overload, verify.Spec{})}
	wants := [][]byte{
		localVerdictJSON(t, caseProfiles(t, "C6", "C2"), verify.Spec{}, []string{"C6", "C2"}),
		localVerdictJSON(t, overload, verify.Spec{}, namesOf(overload)),
	}
	for _, tc := range []struct{ opt, lanes int }{{0, 4}, {1, 2}} {
		r := newRig(t, backendCase{name: "local"}, func(o *Options) { o.Workers = tc.opt })
		for i, req := range reqs {
			rq, _, err := r.svc.resolve(req)
			if err != nil {
				t.Fatal(err)
			}
			if rq.cfg.Workers != tc.lanes {
				t.Errorf("Workers %d under GOMAXPROCS 4: %d lanes, want %d", tc.opt, rq.cfg.Workers, tc.lanes)
			}
			status, resp, got := r.submit(t, req)
			if status != http.StatusOK || !bytes.Equal(got, wants[i]) {
				t.Errorf("Workers %d, request %d: HTTP %d (%s), verdict %s, want %s", tc.opt, i, status, resp.Error, got, wants[i])
			}
		}
	}
	for _, opt := range []int{0, 1} {
		r := newRig(t, backendCase{name: "loopback2", nodes: 2}, func(o *Options) { o.Workers = opt })
		for i, req := range reqs {
			rq, _, err := r.svc.resolve(req)
			if err != nil {
				t.Fatal(err)
			}
			if rq.cfg.Workers != opt {
				t.Errorf("Workers %d on a cluster: %d lanes per node, want %d", opt, rq.cfg.Workers, opt)
			}
			status, resp, got := r.submit(t, req)
			if status != http.StatusOK || !bytes.Equal(got, wants[i]) {
				t.Errorf("Workers %d on a cluster, request %d: HTTP %d (%s), verdict %s, want %s", opt, i, status, resp.Error, got, wants[i])
			}
		}
	}
}
