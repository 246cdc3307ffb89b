package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzBuildHandler drives POST /v1/build with arbitrary bodies on a
// small-limits daemon. Whatever the body, the handler must not panic,
// must answer 200, 400 or 408, and a 200 must decode with one result per
// net and one tree per ε (len(eps_sweep), or 1).
func FuzzBuildHandler(f *testing.F) {
	for _, c := range malformedCases {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(`{"nets":[{"algo":"bkrus","eps_sweep":[0,0.2,0.5],"source":{"x":0,"y":0},"sinks":[{"x":3,"y":1},{"x":1,"y":4},{"x":5,"y":5}]}]}`))

	h := New(Config{
		MaxPoints:      12,
		MaxSweep:       4,
		MaxBatch:       3,
		DefaultTimeout: 200 * time.Millisecond,
		MaxTimeout:     200 * time.Millisecond,
	}).Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/build", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestTimeout:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var req BuildRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for an undecodable body %q: %v", body, err)
		}
		var resp BuildResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode: %v\n%s", err, rec.Body.Bytes())
		}
		if len(resp.Results) != len(req.Nets) {
			t.Fatalf("%d results for %d nets", len(resp.Results), len(req.Nets))
		}
		for i, r := range resp.Results {
			want := len(req.Nets[i].EpsSweep)
			if want == 0 {
				want = 1
			}
			if len(r.Trees) != want {
				t.Fatalf("net %d: %d trees, want %d", i, len(r.Trees), want)
			}
		}
	})
}
