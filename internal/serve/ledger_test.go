package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/response_ledger.txt from the current responses")

// responseLedgerPath is the committed ledger of TestBuildResponseLedger.
var responseLedgerPath = filepath.Join("testdata", "response_ledger.txt")

// ledgerCase is one POST /v1/build body of the response ledger.
type ledgerCase struct {
	name, body string
}

// ledgerBuildCases are the bodies the default-limits daemon answers:
// every response shape (spanning edges, Steiner wires, sweeps, cache
// hits) and every string and float the encoder treats specially.
func ledgerBuildCases() []ledgerCase {
	rng := rand.New(rand.NewSource(5))
	cases := []ledgerCase{
		{"bkrus", `{"nets":[` + randomNetJSON(rng, 24, "bkrus", `"eps":0.2`) + `]}`},
		{"bkrus-l2", `{"nets":[` + randomNetJSON(rng, 40, "bkrus", `"eps":0.5,"metric":"l2"`) + `]}`},
		{"mst", `{"nets":[` + randomNetJSON(rng, 64, "mst", "") + `]}`},
		{"bkst", `{"nets":[` + randomNetJSON(rng, 12, "bkst", `"eps":0.3`) + `]}`},
		{"bkrus-sweep", `{"nets":[` + randomNetJSON(rng, 30, "bkrus", `"eps_sweep":[0,0.1,0.5,2]`) + `]}`},
		{"bkst-sweep", `{"nets":[` + randomNetJSON(rng, 8, "bkst", `"eps_sweep":[0.1,0.5,2]`) + `]}`},
		{"batch", `{"timeout_ms":5000,"nets":[` + randomNetJSON(rng, 6, "bkrus", `"name":"a","eps":1`) + `,` +
			randomNetJSON(rng, 6, "bkst", `"name":"b","eps":0.4`) + `,` + randomNetJSON(rng, 6, "spt", `"name":"c"`) + `]}`},
		{"one-sink", `{"nets":[{"algo":"bkrus","source":{"x":0,"y":0},"sinks":[{"x":0,"y":0}]}]}`},
		{"html-name", `{"nets":[{"name":"<a href=\"x\">&amp;</a>","algo":"mst","source":{"x":0,"y":0},"sinks":[{"x":1,"y":2}]}]}`},
		{"line-separator-name", `{"nets":[{"name":"a\u2028b\u2029c","algo":"mst","source":{"x":0,"y":0},"sinks":[{"x":1,"y":2}]}]}`},
		{"invalid-utf8-escape-name", `{"nets":[{"name":"x\ud800y","algo":"mst","source":{"x":0,"y":0},"sinks":[{"x":1,"y":2}]}]}`},
		{"invalid-utf8-byte-name", "{\"nets\":[{\"name\":\"x\xffy\xc3\",\"algo\":\"mst\",\"source\":{\"x\":0,\"y\":0},\"sinks\":[{\"x\":1,\"y\":2}]}]}"},
		{"control-name", `{"nets":[{"name":"t\tn\n\u0001\\\"é","algo":"mst","source":{"x":0,"y":0},"sinks":[{"x":1,"y":2}]}]}`},
		{"tiny-coords", `{"nets":[{"algo":"mst","source":{"x":0,"y":0},"sinks":[{"x":1e-7,"y":0},{"x":3e-7,"y":2e-8}]}]}`},
		{"huge-coords", `{"nets":[{"algo":"mst","source":{"x":0,"y":0},"sinks":[{"x":1e22,"y":0},{"x":0,"y":2.5e21}]}]}`},
		{"tiny-steiner", `{"nets":[{"algo":"bkst","eps":0.5,"source":{"x":-0,"y":0},"sinks":[{"x":1e-7,"y":0},{"x":0,"y":1e-7},{"x":2e-7,"y":3e-7}]}]}`},
		{"huge-steiner", `{"nets":[{"algo":"bkst","eps":0.5,"source":{"x":0,"y":-0},"sinks":[{"x":1e22,"y":0},{"x":-0,"y":1e21},{"x":2e22,"y":3e21}]}]}`},
		{"negative-zero", `{"nets":[{"algo":"bkst","eps":1,"source":{"x":-0,"y":-0},"sinks":[{"x":-0,"y":5},{"x":5,"y":-0},{"x":-3,"y":-4}]}]}`},
		{"eps-formats", `{"nets":[{"algo":"bkrus","eps_sweep":[1e-7,0.000001,1e21,123456789012345678901],"source":{"x":0,"y":0},"sinks":[{"x":3,"y":4},{"x":-2,"y":7}]}]}`},
		{"params", `{"nets":[{"algo":"bkex","eps":0.3,"depth":2,"xbudget":1000,"source":{"x":0,"y":0},"sinks":[{"x":3,"y":4},{"x":-2,"y":7},{"x":5,"y":1}]}]}`},
	}
	// A repeat of the first net answers from the instance cache.
	cases = append(cases, ledgerCase{"bkrus-repeat", cases[0].body})
	return cases
}

// responseDigest is the ledger entry of one answer: the status and the
// SHA-256 of the full body.
func responseDigest(h http.Handler, body string) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/build", strings.NewReader(body)))
	return fmt.Sprintf("%d %x", rec.Code, sha256.Sum256(rec.Body.Bytes()))
}

// TestBuildResponseLedger pins the full /v1/build response body, 200
// and 400, to a SHA-256 per case: the build corpus on a default daemon
// and every malformedCases body on the small-limits daemon of
// TestMalformedRequests, so the 400 texts are pinned too. A change to
// how requests are decoded or responses encoded must leave each entry
// unchanged. go test -run TestBuildResponseLedger -update rewrites the
// ledger.
func TestBuildResponseLedger(t *testing.T) {
	want := map[string]string{}
	if !*updateLedger {
		f, err := os.Open(responseLedgerPath)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), " "); ok {
				want[k] = v
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	var lines []string
	check := func(h http.Handler, key, body string) {
		got := responseDigest(h, body)
		lines = append(lines, key+" "+got)
		if !*updateLedger && want[key] != got {
			t.Errorf("%s: %s, ledger %q", key, got, want[key])
		}
	}
	build := New(Config{}).Handler()
	for _, c := range ledgerBuildCases() {
		check(build, "build/"+c.name, c.body)
	}
	limits := New(Config{MaxBatch: 2, MaxPoints: 5, MaxSweep: 3}).Handler()
	for _, c := range malformedCases {
		check(limits, "malformed/"+strings.ReplaceAll(c.name, " ", "-"), c.body)
	}
	if *updateLedger {
		if err := os.WriteFile(responseLedgerPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLedgerResponsesDecode guards the ledger corpus itself: each build
// case answers 200 and each body is one JSON document and a newline.
func TestLedgerResponsesDecode(t *testing.T) {
	h := New(Config{}).Handler()
	for _, c := range ledgerBuildCases() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/build", strings.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d: %s", c.name, rec.Code, rec.Body.Bytes())
			continue
		}
		if b := rec.Body.Bytes(); !bytes.HasSuffix(b, []byte("}\n")) || bytes.Count(b, []byte("\n")) != 1 {
			t.Errorf("%s: body is not one document and a newline: %q", c.name, b)
		}
	}
}
