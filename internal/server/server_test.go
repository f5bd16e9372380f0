package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aliaslab/internal/core"
	"aliaslab/internal/driver"
	"aliaslab/internal/server"
	"aliaslab/internal/vdg"
)

// buggySrc trips the uaf checker: read through p after free.
const buggySrc = `
int main(void) {
    int *p;
    p = malloc(4);
    *p = 1;
    free(p);
    return *p;
}
`

const cleanSrc = `
int g;
int main(void) {
    int *p;
    p = &g;
    *p = 7;
    return *p;
}
`

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	return newStagedServer(t, cfg, nil)
}

// post sends a JSON body with optional headers and returns the
// response with its body read.
func post(t *testing.T, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

type analyzeResp struct {
	Unit   string `json:"unit"`
	Label  string `json:"label"`
	Census struct {
		Total int `json:"total"`
	} `json:"pairs"`
	Degradation *struct {
		Degraded bool     `json:"degraded"`
		Reason   string   `json:"reason"`
		Tier     string   `json:"tier"`
		Sound    *bool    `json:"sound"`
		Notes    []string `json:"notes"`
	} `json:"degradation"`
}

func TestAnalyzeCorpusAndCache(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, body := post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "part"}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Aliaslab-Cache"); got != "miss" {
		t.Errorf("first request cache status %q, want miss", got)
	}
	var ar analyzeResp
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if ar.Unit != "part.c" || ar.Label != "context-insensitive" || ar.Census.Total == 0 {
		t.Errorf("result shape: %+v", ar)
	}
	if ar.Degradation != nil {
		t.Errorf("full result carries a degradation envelope: %+v", ar.Degradation)
	}

	// Same request again: served from cache, byte-identical body.
	resp2, body2 := post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "part"}, nil)
	if resp2.StatusCode != 200 || resp2.Header.Get("X-Aliaslab-Cache") != "hit" {
		t.Fatalf("repeat: status %d, cache %q", resp2.StatusCode, resp2.Header.Get("X-Aliaslab-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Errorf("cache hit bytes differ from fresh solve:\n%s\nvs\n%s", body, body2)
	}
}

func TestAnalyzeSourceNormalization(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, body := post(t, ts.URL+"/v1/analyze", map[string]string{"source": cleanSrc}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// CRLF and trailing-newline variants canonicalize onto the same
	// cache entry.
	variant := strings.ReplaceAll(cleanSrc, "\n", "\r\n") + "\r\n\r\n"
	resp2, body2 := post(t, ts.URL+"/v1/analyze", map[string]string{"source": variant}, nil)
	if resp2.Header.Get("X-Aliaslab-Cache") != "hit" {
		t.Errorf("CRLF variant missed the cache: %q", resp2.Header.Get("X-Aliaslab-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Errorf("variant bytes differ")
	}
}

// TestAnalyzeAllBackends: a full /v1/analyze body is the CLI's
// -print json rendering of the same unit, byte for byte, so it is
// checked against the CLI's goldens.
func TestAnalyzeAllBackends(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	for _, b := range []string{"ci", "cs", "andersen", "steensgaard"} {
		resp, body := post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "part", "backend": b}, nil)
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d: %s", b, resp.StatusCode, body)
			continue
		}
		golden := filepath.Join("..", "..", "cmd", "aliaslab", "testdata", "backend_"+b+"_json_part.golden")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s: body differs from %s:\n--- got\n%s--- want\n%s", b, golden, body, want)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxSourceBytes: 4096})
	for name, tc := range map[string]struct {
		body   any
		hdr    map[string]string
		status int
		substr string
	}{
		"neither":         {body: map[string]string{}, status: 400, substr: "exactly one"},
		"both":            {body: map[string]string{"source": "int main(void){return 0;}", "corpus": "part"}, status: 400, substr: "exactly one"},
		"unknown corpus":  {body: map[string]string{"corpus": "nosuch"}, status: 400},
		"unknown backend": {body: map[string]string{"corpus": "part", "backend": "anderson"}, status: 400},
		"checkers on analyze": {body: map[string]any{"corpus": "part", "checkers": []string{"uaf"}},
			status: 400, substr: "vet only"},
		// The per-procedure summary mode is gone; its request field is
		// now unknown rather than silently ignored.
		"removed modular field": {body: map[string]any{"corpus": "part", "modular": true},
			status: 400, substr: `unknown field "modular"`},
		// So is the worklist-order field: the solver has one FIFO queue,
		// and any value, once valid or not, is refused the same way.
		"steens worklist": {body: map[string]string{"corpus": "part", "backend": "steensgaard", "worklist": "lifo"},
			status: 400, substr: `unknown field "worklist"`},
		"bad worklist": {body: map[string]string{"corpus": "part", "worklist": "random"},
			status: 400, substr: `unknown field "worklist"`},
		"bad header": {body: map[string]string{"corpus": "part"},
			hdr: map[string]string{"X-Aliaslab-Max-Steps": "lots"}, status: 400, substr: "non-negative"},
		"oversized": {body: map[string]string{"source": strings.Repeat("/* pad */\n", 1000) + cleanSrc}, status: 413},
		"parse error": {body: map[string]string{"source": "int main(void) { return *; }"},
			status: 400},
	} {
		t.Run(name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/analyze", tc.body, tc.hdr)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			var eb struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Fatalf("error body shape: %v %s", err, body)
			}
			if tc.substr != "" && !strings.Contains(eb.Error, tc.substr) {
				t.Errorf("error %q missing %q", eb.Error, tc.substr)
			}
		})
	}

	// Malformed JSON body.
	resp, _ := func() (*http.Response, []byte) {
		r, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r, b
	}()
	if resp.StatusCode != 400 {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
}

// TestDeepNestingKeepsServerUp: the 1,040,054-byte request nesting an
// expression 520,000 parentheses deep, under the default 1 MiB source
// limit, overflowed the parser's stack and killed the process. It now
// gets an error status and the server stays live.
func TestDeepNestingKeepsServerUp(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}))
	t.Cleanup(ts.Close)
	const n = 520000
	src := "int main(void){int x; x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; return x;}\n"
	if raw, _ := json.Marshal(map[string]string{"source": src}); len(raw) != 1040054 {
		t.Fatalf("request body is %d bytes, want 1040054", len(raw))
	}
	resp, body := post(t, ts.URL+"/v1/analyze", map[string]string{"source": src}, nil)
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Errorf("status %d, want a 4xx error: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("nests too deeply")) {
		t.Errorf("body does not name the depth limit: %s", body)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != 200 {
		t.Errorf("healthz after the deep request: %d", hz.StatusCode)
	}
}

func TestVet(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, body := post(t, ts.URL+"/v1/vet", map[string]string{"source": buggySrc}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var diags []struct {
		Checker string `json:"checker"`
	}
	if err := json.Unmarshal(body, &diags); err != nil {
		t.Fatalf("healthy vet should be a plain array: %v\n%s", err, body)
	}
	found := false
	for _, d := range diags {
		found = found || d.Checker == "uaf"
	}
	if !found {
		t.Errorf("uaf finding missing: %s", body)
	}

	// Vet rejects the context-sensitive backend, like the CLI.
	resp, body = post(t, ts.URL+"/v1/vet", map[string]string{"source": buggySrc, "backend": "cs"}, nil)
	if resp.StatusCode != 400 || !strings.Contains(string(body), "not cs") {
		t.Errorf("vet+cs: status %d: %s", resp.StatusCode, body)
	}
}

// TestVetRejectsCSBody pins the whole 400 body for a vet request on
// the cs backend: the rule and its wording are the one the CLI's -vet
// uses.
func TestVetRejectsCSBody(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, body := post(t, ts.URL+"/v1/vet", map[string]string{"corpus": "part", "backend": "cs"}, nil)
	const want = "{\n  \"error\": \"vet runs on the ci, andersen, or steensgaard backend, not cs\"\n}\n"
	if resp.StatusCode != 400 || string(body) != want {
		t.Fatalf("status %d body %q, want 400 %q", resp.StatusCode, body, want)
	}
}

func TestVetDegraded(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	// A pair budget far below what the corpus program needs forces a
	// partial solution: vet still answers, as 206 with the envelope.
	resp, body := post(t, ts.URL+"/v1/vet", map[string]string{"corpus": "compress"},
		map[string]string{"X-Aliaslab-Max-Pairs": "10"})
	if resp.StatusCode != 206 {
		t.Fatalf("status %d, want 206: %s", resp.StatusCode, body)
	}
	var env struct {
		Degraded    bool            `json:"degraded"`
		Reason      string          `json:"reason"`
		Notes       []string        `json:"notes"`
		Diagnostics json.RawMessage `json:"diagnostics"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if !env.Degraded || !strings.Contains(env.Reason, "pair budget") || env.Diagnostics == nil {
		t.Errorf("degraded vet envelope: %+v", env)
	}
}

func TestAnalyzeBudgetExhausted(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	// CI under an impossible pair budget is a partial (unsound)
	// fixpoint: 503, envelope sound=false, and no result sets.
	resp, body := post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "compress"},
		map[string]string{"X-Aliaslab-Max-Pairs": "10"})
	if resp.StatusCode != 503 {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var eb struct {
		Error       string `json:"error"`
		Degradation *struct {
			Degraded bool  `json:"degraded"`
			Sound    *bool `json:"sound"`
		} `json:"degradation"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Degradation == nil || !eb.Degradation.Degraded || eb.Degradation.Sound == nil || *eb.Degradation.Sound {
		t.Errorf("503 envelope: %s", body)
	}
	if strings.Contains(string(body), "storeAtExit") {
		t.Errorf("unsound 503 leaked result sets: %s", body)
	}
}

// swapRecSrc mirrors the adversarial fixture of the core degradation
// tests: wide call fan-out into a recursive pointer-swapping procedure,
// where every formal may denote many locations, so the
// context-sensitive analysis takes more flow-ins than the insensitive
// one.
func swapRecSrc(k int) string {
	var sb strings.Builder
	sb.WriteString("int c;\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "int t%d;\n", i)
	}
	sb.WriteString(`
void fill(int **p, int **q) {
  int *tmp;
  if (c) { fill(q, p); }
  tmp = *p;
  *p = *q;
  *q = tmp;
}
int main() {
  int *u; int *v;
`)
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "  if (c == %d) { u = &t%d; } else { v = &t%d; }\n", i, i, i)
	}
	sb.WriteString("  fill(&u, &v);\n  fill(&v, &u);\n  return **(&u);\n}\n")
	return sb.String()
}

func TestAnalyzeDegradedSound(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	// A CS request whose step cap lets CI finish but not CS degrades to
	// a sound coarser answer: 206 with tier and notes. The cap sits
	// between the fixture's own CI and CS flow-ins.
	src := swapRecSrc(12)
	u, err := driver.LoadString("request.c", src, vdg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ci := core.AnalyzeInsensitive(u.Graph)
	cs := core.AnalyzeSensitive(u.Graph, core.SensitiveOptions{CI: ci})
	if cs.Engine.Steps <= ci.Engine.Steps+1 {
		t.Fatalf("fixture not adversarial: CI %d flow-ins, CS %d", ci.Engine.Steps, cs.Engine.Steps)
	}
	maxSteps := (ci.Engine.Steps + cs.Engine.Steps) / 2

	resp, body := post(t, ts.URL+"/v1/analyze", map[string]string{"source": src, "backend": "cs"},
		map[string]string{"X-Aliaslab-Max-Steps": strconv.Itoa(maxSteps)})
	if resp.StatusCode != 206 {
		t.Fatalf("status %d, want 206: %s", resp.StatusCode, body)
	}
	var ar analyzeResp
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Degradation == nil || !ar.Degradation.Degraded || ar.Degradation.Sound == nil || !*ar.Degradation.Sound {
		t.Fatalf("206 envelope: %s", body)
	}
	if ar.Degradation.Tier != "ci-fallback" {
		t.Errorf("tier %q, want ci-fallback", ar.Degradation.Tier)
	}
	if len(ar.Degradation.Notes) != 2 {
		t.Errorf("notes %q, want the CS stop and the fallback", ar.Degradation.Notes)
	}
	if !strings.Contains(ar.Label, "degraded") {
		t.Errorf("label %q not marked degraded", ar.Label)
	}
}

// slowSolve is a stage hook that holds every request 300ms at solve,
// long enough for a second request to arrive while the first is in
// flight.
func slowSolve(stage string) error {
	if stage == "solve" {
		time.Sleep(300 * time.Millisecond)
	}
	return nil
}

func TestAdmissionControl(t *testing.T) {
	s, ts := newStagedServer(t, server.Config{MaxConcurrent: 1}, slowSolve)

	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "part"}, nil)
		done <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.InFlight() == 1 })

	// A *different* request while the slot is held: rejected up front.
	resp, body := post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "span"}, nil)
	if resp.StatusCode != 429 {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := <-done; got != 200 {
		t.Errorf("admitted slow request finished %d", got)
	}
}

func TestSingleFlightDedup(t *testing.T) {
	s, ts := newStagedServer(t, server.Config{}, slowSolve)

	req := map[string]string{"corpus": "part"}
	type result struct {
		status int
		cache  string
		body   []byte
	}
	leaderCh := make(chan result, 1)
	go func() {
		resp, body := post(t, ts.URL+"/v1/analyze", req, nil)
		leaderCh <- result{resp.StatusCode, resp.Header.Get("X-Aliaslab-Cache"), body}
	}()
	waitFor(t, func() bool { return s.InFlight() == 1 })

	const followers = 6
	var wg sync.WaitGroup
	results := make([]result, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/analyze", req, nil)
			results[i] = result{resp.StatusCode, resp.Header.Get("X-Aliaslab-Cache"), body}
		}(i)
	}
	wg.Wait()
	leader := <-leaderCh

	if leader.status != 200 || leader.cache != "miss" {
		t.Fatalf("leader: %d %q", leader.status, leader.cache)
	}
	for i, r := range results {
		if r.status != 200 {
			t.Errorf("follower %d: status %d", i, r.status)
		}
		if r.cache != "dedup" {
			t.Errorf("follower %d: cache status %q, want dedup", i, r.cache)
		}
		if !bytes.Equal(r.body, leader.body) {
			t.Errorf("follower %d bytes differ from leader", i)
		}
	}
}

func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	s.StartDrain()
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != 503 {
		t.Errorf("readyz during drain: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != 200 {
		t.Errorf("healthz during drain: %d (liveness must hold while draining)", resp.StatusCode)
	}
	resp, body := post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "part"}, nil)
	if resp.StatusCode != 503 || !strings.Contains(string(body), "draining") {
		t.Errorf("analyze during drain: %d %s", resp.StatusCode, body)
	}
}

func TestOpsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "part"}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var metrics []struct {
		Name  string `json:"name"`
		Value *int64 `json:"value"`
	}
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatalf("metrics: %v\n%s", err, raw)
	}
	byName := map[string]int64{}
	for _, m := range metrics {
		if m.Value != nil {
			byName[m.Name] = *m.Value
		}
	}
	if byName["server.requests"] < 1 || byName["server.responses.200"] < 1 {
		t.Errorf("request counters not populated: %v", byName)
	}

	resp, err = http.Get(ts.URL + "/v1/corpus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ = io.ReadAll(resp.Body)
	var programs []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(raw, &programs); err != nil || len(programs) != 13 {
		t.Errorf("corpus listing: %v, %d programs\n%s", err, len(programs), raw)
	}
}

func TestCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, server.Config{CacheEntries: 1})
	post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "part"}, nil)
	post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "span"}, nil) // evicts part
	resp, _ := post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "part"}, nil)
	if got := resp.Header.Get("X-Aliaslab-Cache"); got != "miss" {
		t.Errorf("evicted entry served as %q", got)
	}
	resp, _ = post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "part"}, nil)
	if got := resp.Header.Get("X-Aliaslab-Cache"); got != "hit" {
		t.Errorf("refilled entry served as %q", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
