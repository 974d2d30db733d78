package admit

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"tightcps/internal/verify"
)

// checkDecode holds decodeRequest to encoding/json on one body: both accept
// or both refuse, an accepted body decodes to reflect.DeepEqual values, and
// a refusal is worded for the 400 it becomes.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var want, got AdmitRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	gotErr := decodeRequest(bytes.NewReader(body), &got)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("body %q: decoder error %v, encoding/json error %v", body, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() == "" {
			t.Fatalf("body %q: empty error", body)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("body %q:\n decoded %#v\nencoding/json %#v", body, got, want)
	}
}

// hitBodies are the benchmark's four hit-body shapes: S1, S2 and V5 by name
// and the symmetric nine-application fleet F9 inline.
func hitBodies(t testing.TB) [][]byte {
	var out [][]byte
	for _, apps := range [][]string{{"C1", "C5", "C4", "C3"}, {"C6", "C2"}, {"C1", "C5", "C4", "C3", "C6"}} {
		out = append(out, []byte(mustBody(t, &AdmitRequest{Apps: apps})))
	}
	return append(out, f9Body(t))
}

func f9Body(t testing.TB) []byte {
	return []byte(mustBody(t, inlineReq(fleet(9, 8, 1, 2, 9), verify.Spec{Symmetry: true})))
}

// decodeEdges are bodies at the edges of encoding/json's rules: case-folded
// and escaped keys (ſ folds to s), escaped and invalid-UTF-8 strings, nulls
// for every kind of field, repeated keys merging into earlier values,
// unknown keys with nested values, integer limits, fractions and exponents,
// top-level values other than an object, and syntax errors.
var decodeEdges = []string{
	`{"APPS":["C6"],"Profiles":null,"CONFIG":{"MAXSTATES":5,"symmetrY":true,"Policy":"lazy"}}`,
	`{"appſ":["C1"],"profiles":[{"tdwMinuſ":[1],"NAME":"x"}],"aſync":true}`,
	`{"\u0061pps":["C1"],"time\u004fUTms":7}`,
	`{"profiles":[{"name":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00|\ud800x|\udc00|\ud800\u0041|\ud800\\u0041"}]}`,
	"{\"profiles\":[{\"name\":\"bad \xff\xfe utf8 \xed\xa0\x80 é\"}],\"apps\":[\"\xc3\"]}",
	`{"apps":null}`,
	`{"apps":["C1",null]}`,
	`{"profiles":[null,{"r":null,"name":null,"tdwMinus":null}]}`,
	`{"config":null,"async":null,"timeoutMs":null}`,
	`{"apps":["a","b","c"],"apps":["x"],"apps":[null,null,null]}`,
	`{"apps":["a","b"],"apps":[],"apps":[null]}`,
	`{"profiles":[{"r":5,"name":"a","tdwMinus":[1,2,3,4,5]},{"r":6}],"profiles":[{"twStar":3,"tdwMinus":[9]}],"profiles":[{"tdwMinus":[null,null,null,null,null,null,null]},null]}`,
	`{"profiles":[{"tdwPlus":[1,2,3],"tdwPlus":[],"tdwPlus":[null,null]}]}`,
	`{"config":{"bounded":true,"policy":"lazy"},"config":{"maxStates":9},"async":true,"async":false}`,
	`{"x":{"a":[1,2,{"b":[true,false,null,"s",-1.5e+3,0.25,1E-2]}]},"apps":["C1"],"y":[[[]]],"z":{}}`,
	`{"timeoutMs":12345678901234567890}`,
	`{"timeoutMs":-12345678901234567890}`,
	`{"timeoutMs":9223372036854775807}`,
	`{"timeoutMs":-9223372036854775808}`,
	`{"timeoutMs":9223372036854775808}`,
	`{"timeoutMs":-9223372036854775809}`,
	`{"timeoutMs":-0}`,
	`{"timeoutMs":1.0}`,
	`{"timeoutMs":1e2}`,
	`{"timeoutMs":01}`,
	`{"timeoutMs":-}`,
	`{"timeoutMs":1.}`,
	`{"timeoutMs":1e+}`,
	`{"timeoutMs":"5"}`,
	`{"timeoutMs":true}`,
	`{"async":1}`,
	`{"apps":"C1"}`,
	`{"apps":[1]}`,
	`{"config":[]}`,
	`{"profiles":{}}`,
	`{"profiles":[[]]}`,
	`{"apps":["a\u0001"]}`,
	"{\"apps\":[\"a\x01\"]}",
	`{"apps":["\x"]}`,
	`{"apps":["\u12"]}`,
	`{"apps":["\u12G4"]}`,
	`{"apps":["C1"] "x":1}`,
	`{"apps":["C1",]}`,
	`{"apps":["C1"],}`,
	`{,}`,
	`{"a" 1}`,
	`{1:2}`,
	`{"x":tru}`,
	`{"x":nulL}`,
	"\t\n\r {\"apps\":[\"C1\"]}",
	"\ufeff{}",
	`null`,
	`nullx`,
	`nul`,
	`[]`,
	`5`,
	`5x`,
	`"s"`,
	`true`,
	`{} trailing`,
	`{}}`,
	``,
	` `,
	`{`,
	`{"apps"`,
	`{"apps":`,
	`{"apps":["C1"`,
	`{"apps":["C1"]`,
}

// FuzzAdmitRequest is the request decoder's oracle: for any body it must
// agree with encoding/json on acceptance and on the decoded value, and never
// panic. The seeds are TestServiceValidation's bodies, the rest of this
// package's request bodies, the benchmark's hit bodies with every prefix of
// F9's, and decodeEdges.
func FuzzAdmitRequest(f *testing.F) {
	for _, tc := range validationCases {
		f.Add([]byte(tc.body))
	}
	for _, tc := range equivalenceCases {
		req := &AdmitRequest{Apps: tc.apps, Config: tc.spec}
		if tc.ps != nil {
			req = inlineReq(tc.ps(), tc.spec)
		}
		f.Add([]byte(mustBody(f, req)))
	}
	f.Add([]byte(`{"apps":["C1","C5"]}`))
	f.Add([]byte(mustBody(f, &AdmitRequest{Apps: []string{"C6", "C2"}, Async: true, TimeoutMs: 250})))
	for _, b := range hitBodies(f) {
		f.Add(b)
	}
	f9 := f9Body(f)
	for n := 0; n < len(f9); n += 37 {
		f.Add(f9[:n])
	}
	for _, b := range decodeEdges {
		f.Add([]byte(b))
	}
	f.Fuzz(checkDecode)
}

// TestDecodeRequestDepth: encoding/json refuses nesting deeper than 10,000
// containers, the request object included; so does the decoder, in a
// skipped value as in a known field.
func TestDecodeRequestDepth(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		checkDecode(t, []byte(`{"x":`+strings.Repeat("[", depth-1)+strings.Repeat("]", depth-1)+`}`))
		checkDecode(t, []byte(`{"x":`+strings.Repeat(`{"a":`, depth-1)+"1"+strings.Repeat("}", depth-1)+`}`))
		checkDecode(t, []byte(`{"profiles":[{"x":`+strings.Repeat("[", depth-3)+strings.Repeat("]", depth-3)+`}]}`))
	}
}

// TestDecodeRequestBodyLimit: as with encoding/json behind the maxBody
// LimitReader it replaced, an object the limit cuts is refused and one that
// closes inside it is accepted whatever follows; a read error that cuts the
// object is the error reported, and one after it closes is not.
func TestDecodeRequestBodyLimit(t *testing.T) {
	pad := strings.Repeat(" ", maxBody)
	errRead := errors.New("connection reset")
	for _, tc := range []struct {
		name string
		r    io.Reader
		want error // nil: accepted
	}{
		{"objectThenPastLimit", strings.NewReader(`{"apps":["C1"]}` + pad), nil},
		{"objectPastLimit", strings.NewReader(`{"apps":["C1"],"x":"` + pad + `"}`), errUnexpectedEnd},
		{"readErrorInObject", io.MultiReader(strings.NewReader(`{"apps":[`), iotest.ErrReader(errRead)), errRead},
		{"readErrorAfterObject", io.MultiReader(strings.NewReader(`{"apps":["C1"]}`), iotest.ErrReader(errRead)), nil},
	} {
		var req AdmitRequest
		err := decodeRequest(tc.r, &req)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
		if err == nil && !reflect.DeepEqual(req.Apps, []string{"C1"}) {
			t.Errorf("%s: apps %q", tc.name, req.Apps)
		}
	}
}

// TestAdmitDecodeAllocs: decoding the F9 body allocates the request's own
// strings and slices — a name and two dwell tables per profile, the profile
// slice — and nothing per table element or per token; the reflection
// decoder it replaced took 117.
func TestAdmitDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and sync.Pool drops entries under it")
	}
	body := f9Body(t)
	profiles := 9
	r := bytes.NewReader(body)
	var req AdmitRequest
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		req = AdmitRequest{}
		if err := decodeRequest(r, &req); err != nil || len(req.Profiles) != profiles {
			t.Fatalf("F9 body: %d profiles, %v", len(req.Profiles), err)
		}
	})
	t.Logf("%.0f allocations to decode the %d-byte F9 body (%d profiles)", allocs, len(body), profiles)
	if limit := float64(3*profiles + 4); allocs > limit {
		t.Errorf("%.0f allocations to decode the F9 body, limit %.0f: is something allocated per element?", allocs, limit)
	}
}

// BenchmarkAdmitDecode times the F9 body through the decoder and through the
// encoding/json call it replaced.
func BenchmarkAdmitDecode(b *testing.B) {
	body := f9Body(b)
	for _, dec := range []struct {
		name string
		fn   func(*bytes.Reader, *AdmitRequest) error
	}{
		{"wire", func(r *bytes.Reader, req *AdmitRequest) error { return decodeRequest(r, req) }},
		{"encoding-json", func(r *bytes.Reader, req *AdmitRequest) error { return json.NewDecoder(r).Decode(req) }},
	} {
		b.Run(dec.name, func(b *testing.B) {
			r := bytes.NewReader(body)
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				r.Reset(body)
				var req AdmitRequest
				if err := dec.fn(r, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestProfileSharesDecodedTables: the decoder's tables are the request's
// own, so the profile built from them shares them rather than copying.
func TestProfileSharesDecodedTables(t *testing.T) {
	var req AdmitRequest
	if err := decodeRequest(bytes.NewReader(f9Body(t)), &req); err != nil {
		t.Fatal(err)
	}
	p, err := req.Profiles[0].profile(0)
	if err != nil {
		t.Fatal(err)
	}
	if &p.TdwMinus[0] != &req.Profiles[0].TdwMinus[0] || &p.TdwPlus[0] != &req.Profiles[0].TdwPlus[0] {
		t.Fatal("profile copied the decoded dwell tables")
	}
	want := ProfileJSONOf(fleet(9, 8, 1, 2, 9)[0])
	if got := ProfileJSONOf(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("profile %+v, want %+v", got, want)
	}
}
