package admit

// The e2e rig: boots the admission service over a real HTTP listener
// (httptest) in front of each backend of the matrix — the in-process
// engine, 1/2/4-node loopback mesh clusters, and a 2-node TCP mesh — and
// gives the tests raw-JSON submit plumbing so verdicts can be compared
// byte-for-byte.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tightcps/internal/dverify"
	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// rigWorkers pins the per-search expansion pool for both the service and
// the local reference runs. Any value ≥ 2 yields identical verdicts (the
// parallel driver's minimum-violator rule is worker-count-independent);
// pinning one value just keeps the comparison honest about it.
const rigWorkers = 4

// prof mirrors the synthetic profile helper of the verify and dverify
// tests: constant dwell tables, the knobs that matter being T*w,
// Tdw−/Tdw+ and r.
func prof(name string, twStar, dm, dp, r int) *switching.Profile {
	n := twStar + 1
	minT := make([]int, n)
	plusT := make([]int, n)
	for i := range minT {
		minT[i] = dm
		plusT[i] = dp
	}
	return &switching.Profile{Name: name, TwStar: twStar, TdwMinus: minT, TdwPlus: plusT,
		R: r, Granularity: 1, JStar: twStar + dp, JAtMin: make([]int, n), JBest: make([]int, n)}
}

func fleet(n, twStar, dm, dp, r int) []*switching.Profile {
	out := make([]*switching.Profile, n)
	for i := range out {
		out[i] = prof(fmt.Sprintf("F%d", i), twStar, dm, dp, r)
	}
	return out
}

func caseProfiles(t testing.TB, names ...string) []*switching.Profile {
	t.Helper()
	ps, err := plants.ProfileList(names...)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// backendCase is one entry of the service-backend matrix.
type backendCase struct {
	name  string
	nodes int // 0 = in-process engine
	tcp   bool
}

var backendMatrix = []backendCase{
	{"local", 0, false},
	{"loopback1", 1, false},
	{"loopback2", 2, false},
	{"loopback4", 4, false},
	{"tcp2", 2, true},
}

// rig is one booted admission service: HTTP listener, client, and the
// Service itself (for stats and drain assertions).
type rig struct {
	svc *Service
	ts  *httptest.Server
	cli *Client
}

// newRig boots a service over the named backend. mod, when non-nil,
// adjusts Options before New.
func newRig(t testing.TB, bc backendCase, mod func(*Options)) *rig {
	t.Helper()
	opts := Options{Workers: rigWorkers}
	if bc.nodes > 0 {
		var ts []dverify.Transport
		if bc.tcp {
			addrs := make([]string, bc.nodes)
			for i := range addrs {
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { l.Close() })
				go dverify.NewServer(l, nil).Serve()
				addrs[i] = l.Addr().String()
			}
			var err error
			ts, err = dverify.Dial(addrs, time.Second)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			ts = dverify.Loopback(bc.nodes)
		}
		t.Cleanup(func() { dverify.Close(ts) })
		opts.Backend = dverify.Runner(ts)
		opts.BackendDesc = bc.name
	}
	if mod != nil {
		mod(&opts)
	}
	svc := New(opts)
	hts := httptest.NewServer(svc.Handler())
	t.Cleanup(hts.Close)
	return &rig{svc: svc, ts: hts, cli: &Client{BaseURL: hts.URL}}
}

// statsOf fetches c's /statsz.
func statsOf(c *Client) (*Stats, error) {
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

// postRaw submits a raw JSON body to POST /v1/admit, returning the HTTP
// response and its full body.
func (r *rig) postRaw(t testing.TB, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(r.ts.URL+"/v1/admit", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// submit marshals and submits a request, returning status, the decoded
// response and the verdict sub-object's raw bytes (for byte-equality).
func (r *rig) submit(t testing.TB, req *AdmitRequest) (int, *AdmitResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return r.submitRaw(t, string(body))
}

// submitRaw is submit for a raw JSON body.
func (r *rig) submitRaw(t testing.TB, body string) (int, *AdmitResponse, []byte) {
	t.Helper()
	resp, raw := r.postRaw(t, body)
	var decoded struct {
		AdmitResponse
		RawVerdict json.RawMessage `json:"verdict"` // shadows the struct field to capture exact bytes
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("undecodable response %q: %v", raw, err)
	}
	if len(decoded.RawVerdict) > 0 {
		decoded.Verdict = new(Verdict)
		if err := json.Unmarshal(decoded.RawVerdict, decoded.Verdict); err != nil {
			t.Fatalf("undecodable verdict %q: %v", decoded.RawVerdict, err)
		}
	}
	return resp.StatusCode, &decoded.AdmitResponse, []byte(decoded.RawVerdict)
}

// inlineReq builds an inline-profile request.
func inlineReq(ps []*switching.Profile, spec verify.Spec) *AdmitRequest {
	req := &AdmitRequest{Config: spec, Profiles: make([]ProfileJSON, len(ps))}
	for i, p := range ps {
		req.Profiles[i] = ProfileJSONOf(p)
	}
	return req
}

// localVerdictJSON runs the reference verification in-process — the exact
// config the service resolves, same worker pool — and serializes the
// verdict as the service would. This is the byte-equality oracle.
func localVerdictJSON(t testing.TB, ps []*switching.Profile, spec verify.Spec, names []string) []byte {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = rigWorkers
	res, err := verify.Slot(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(VerdictOf(res, names))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func namesOf(ps []*switching.Profile) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}
