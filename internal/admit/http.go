package admit

// The HTTP/JSON surface of the admission service.
//
//	POST /v1/admit      submit a profile set + slot config; sync by default,
//	                    {"async":true} returns 202 + a job id
//	GET  /v1/jobs/{id}  poll an async submit
//	GET  /healthz       liveness ("draining" while refusing submits)
//	GET  /statsz        service counters (Stats)
//
// The deterministic verdict lives in its own sub-object ("verdict") so
// clients — and the e2e harness — can compare verdicts byte-for-byte
// across backends; the variable serving fields (cached, coalesced,
// elapsedMs) sit beside it, never inside.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"tightcps/internal/obs"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// ProfileJSON is the wire form of a switching profile: the
// admission-relevant content (what mapping.Fingerprint hashes) plus the
// name used in verdict reporting.
type ProfileJSON struct {
	Name        string `json:"name,omitempty"`
	JStar       int    `json:"jStar"`
	R           int    `json:"r"`
	TwStar      int    `json:"twStar"`
	TdwMinus    []int  `json:"tdwMinus"`
	TdwPlus     []int  `json:"tdwPlus"`
	Granularity int    `json:"granularity,omitempty"`
}

// profile validates and converts the wire form. The dwell tables must
// cover Tw = 0..TwStar on the declared granularity grid. The profile shares
// the request's tables: the service owns a decoded request's slices, and a
// caller of Service.Admit must not modify them after submitting.
func (pj ProfileJSON) profile(i int) (*switching.Profile, error) {
	name := pj.Name
	if name == "" {
		name = fmt.Sprintf("app%d", i)
	}
	g := pj.Granularity
	if g == 0 {
		g = 1
	}
	want := pj.TwStar/g + 1
	switch {
	case pj.R <= 0:
		return nil, fmt.Errorf("profile %q: inter-arrival r must be positive, got %d", name, pj.R)
	case pj.TwStar < 0 || g < 0:
		return nil, fmt.Errorf("profile %q: negative twStar/granularity", name)
	case len(pj.TdwMinus) != want || len(pj.TdwPlus) != want:
		return nil, fmt.Errorf("profile %q: dwell tables must hold %d entries for twStar=%d granularity=%d, got %d/%d",
			name, want, pj.TwStar, g, len(pj.TdwMinus), len(pj.TdwPlus))
	}
	return &switching.Profile{
		Name: name, JStar: pj.JStar, R: pj.R, TwStar: pj.TwStar,
		TdwMinus: pj.TdwMinus, TdwPlus: pj.TdwPlus, Granularity: g,
	}, nil
}

// ProfileJSONOf converts a profile to its wire form.
func ProfileJSONOf(p *switching.Profile) ProfileJSON {
	return ProfileJSON{
		Name: p.Name, JStar: p.JStar, R: p.R, TwStar: p.TwStar,
		TdwMinus:    append([]int(nil), p.TdwMinus...),
		TdwPlus:     append([]int(nil), p.TdwPlus...),
		Granularity: p.Granularity,
	}
}

// AdmitRequest is the POST /v1/admit body. Exactly one of Apps (named
// case-study applications) or Profiles (inline profile content) selects
// the profile set.
type AdmitRequest struct {
	Apps     []string      `json:"apps,omitempty"`
	Profiles []ProfileJSON `json:"profiles,omitempty"`
	Config   verify.Spec   `json:"config,omitempty"`
	// Async makes the submit return 202 + a job id for GET /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
	// TimeoutMs bounds the caller's wait; on expiry the caller gets 504
	// while the verification completes and populates the cache.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// Verdict is the deterministic outcome of one admission question —
// identical across backends (local engine, loopback mesh, TCP mesh) and
// across repeats, so it is safe to cache, share between coalesced
// waiters, and compare byte-for-byte in tests. On schedulable sets the
// search is exhaustive and the counts are part of the verdict; on
// violations States/Transitions measure how far the concurrent search ran
// before detection — a timing artifact, not a property of the slot — so
// they are omitted and the verdict is the bit, the first-violating-level
// depth, and the minimal violator.
type Verdict struct {
	Schedulable bool `json:"schedulable"`
	States      int  `json:"states,omitempty"`
	Transitions int  `json:"transitions,omitempty"`
	Depth       int  `json:"depth"`
	// Violator is the index of the minimal violating application (-1 when
	// schedulable or unknown), ViolatorName its reported name.
	Violator     int    `json:"violator"`
	ViolatorName string `json:"violatorName,omitempty"`
	Bounded      bool   `json:"bounded,omitempty"`
}

// VerdictOf shapes an engine result for the wire.
func VerdictOf(res verify.Result, names []string) Verdict {
	v := Verdict{
		Schedulable: res.Schedulable,
		States:      res.States,
		Transitions: res.Transitions,
		Depth:       res.Depth,
		Violator:    -1,
		Bounded:     res.Bounded,
	}
	if !res.Schedulable {
		v.States, v.Transitions = 0, 0
		v.Violator = res.Violator
		if res.Violator >= 0 && res.Violator < len(names) {
			v.ViolatorName = names[res.Violator]
		}
	}
	return v
}

// AdmitResponse is the body of every admission-path response.
type AdmitResponse struct {
	Verdict *Verdict `json:"verdict,omitempty"`
	// Cached: served from the verdict store. Coalesced: this caller shared
	// another submit's in-flight verification. Warm: the store held only
	// the admission bit, loaded from disk — no search counts.
	Cached    bool    `json:"cached,omitempty"`
	Coalesced bool    `json:"coalesced,omitempty"`
	Warm      bool    `json:"warm,omitempty"`
	ElapsedMs float64 `json:"elapsedMs,omitempty"`
	// RunID is the telemetry correlation ID of the verification that
	// produced (or is producing) the verdict — grep it across the front
	// door's logs, the coordinator's trace and the workers' sessions.
	RunID string `json:"runId,omitempty"`
	// Job/Status report async submits ("pending", "done", "error").
	Job    string `json:"job,omitempty"`
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// maxBody bounds a request body (a 100-profile set is ~50KB).
const maxBody = 4 << 20

// Handler returns the service's HTTP mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/admit", s.handleAdmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /statsz", s.handleStats)
	mux.Handle("GET /metricsz", obs.Default.Handler())
	return mux
}

func (s *Service) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var req AdmitRequest
	if err := decodeRequest(r.Body, &req); err != nil {
		s.countError()
		writeJSON(w, http.StatusBadRequest, &AdmitResponse{Error: "malformed request: " + err.Error()})
		return
	}
	var resp *AdmitResponse
	var status int
	if req.Async {
		resp, status = s.submitAsync(&req)
	} else {
		resp, status = s.Admit(&req)
	}
	writeJSON(w, status, resp)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	resp, status := s.jobStatus(r.PathValue("id"))
	writeJSON(w, status, resp)
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ServiceStats())
}

// writeJSON emits one response; 503s carry Retry-After so fleet load
// balancers and clients back off instead of hammering a draining or
// saturated instance.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// StatusError is an HTTP-classified client-side error.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("admit: server returned %d: %s", e.Status, e.Msg)
}

// AsStatusError unwraps err to a StatusError if one is in the chain.
func AsStatusError(err error) (*StatusError, bool) {
	var se *StatusError
	ok := errors.As(err, &se)
	return se, ok
}

// Client submits admission questions to a running service; the CLIs'
// -server mode is this type.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:9833".
	BaseURL string
	// Retry503 re-submits up to this many times when the service refuses
	// with 503 (draining instance, full queue, open breaker), honoring
	// the server's Retry-After header up to maxRetryWait. 0 (the default)
	// returns the 503 to the caller unchanged.
	Retry503 int
}

// maxRetryWait caps one Retry-After wait: a server advertising a long
// drain must not pin the client. Tests shrink it.
var maxRetryWait = 5 * time.Second

// Admit submits one question and returns the service's response. Non-2xx
// responses return a *StatusError carrying the service's message; 503
// refusals are re-submitted per Retry503, waiting out the server's
// (capped) Retry-After between attempts.
func (c *Client) Admit(req *AdmitRequest) (*AdmitResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		resp, wait, err := c.post(body)
		se, ok := AsStatusError(err)
		if !ok || se.Status != http.StatusServiceUnavailable || attempt >= c.Retry503 {
			return resp, err
		}
		time.Sleep(wait)
	}
}

// post runs one submit attempt, returning the capped Retry-After wait
// alongside any 503-class refusal.
func (c *Client) post(body []byte) (*AdmitResponse, time.Duration, error) {
	httpResp, err := http.Post(c.BaseURL+"/v1/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("admit: submitting to %s: %w", c.BaseURL, err)
	}
	defer httpResp.Body.Close()
	var resp AdmitResponse
	if err := json.NewDecoder(io.LimitReader(httpResp.Body, maxBody)).Decode(&resp); err != nil {
		return nil, 0, fmt.Errorf("admit: decoding response (HTTP %d): %w", httpResp.StatusCode, err)
	}
	if httpResp.StatusCode/100 != 2 {
		msg := resp.Error
		if msg == "" {
			msg = "status " + strconv.Itoa(httpResp.StatusCode)
		}
		return &resp, retryWait(httpResp.Header.Get("Retry-After")), &StatusError{Status: httpResp.StatusCode, Msg: msg}
	}
	return &resp, 0, nil
}

// retryWait converts a Retry-After header (delta-seconds form) into a
// capped wait; absent or unparseable headers wait 1s.
func retryWait(header string) time.Duration {
	wait := time.Second
	if sec, err := strconv.Atoi(header); err == nil && sec >= 0 {
		wait = time.Duration(sec) * time.Second
	}
	return min(wait, maxRetryWait)
}

// Verify asks the service for one verdict over inline profiles, the
// remote analogue of verify.Slot. Warm answers (admission bit without
// counts) are returned as-is; check AdmitResponse.Warm if the counts
// matter.
func (c *Client) Verify(profiles []*switching.Profile, spec verify.Spec) (*AdmitResponse, error) {
	req := &AdmitRequest{Config: spec, Profiles: make([]ProfileJSON, len(profiles))}
	for i, p := range profiles {
		req.Profiles[i] = ProfileJSONOf(p)
	}
	return c.Admit(req)
}

// VerifyFunc adapts the client to the dimensioning loop's verification
// hook (mapping.VerifyFunc): dimension -server runs its FirstFit/optimal
// search locally while every admission question goes to the service —
// where fleet-wide coalescing and the persistent cache live.
func (c *Client) VerifyFunc(spec verify.Spec) func(profiles []*switching.Profile) (bool, error) {
	return func(profiles []*switching.Profile) (bool, error) {
		resp, err := c.Verify(profiles, spec)
		if err != nil {
			return false, err
		}
		if resp.Verdict == nil {
			return false, errors.New("admit: response carried no verdict")
		}
		return resp.Verdict.Schedulable, nil
	}
}

// Stats fetches /statsz.
func (c *Client) Stats() (*Stats, error) {
	resp, err := http.Get(c.BaseURL + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
