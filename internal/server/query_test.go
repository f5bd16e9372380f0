package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"aliaslab/internal/server"
)

// querySrc needs a multi-step demand slice (a call, a struct store)
// so the budget tests can actually trip mid-solve.
const querySrc = `
struct node { struct node *next; int v; };
int g;
int *gp;
void link(struct node *a, struct node *b) { a->next = b; }
int main(void) {
	int x; int y; int *p; int *q;
	struct node n1; struct node n2;
	p = &x; q = &y; gp = &g;
	link(&n1, &n2);
	*p = 1; *q = 2;
	return *gp + n1.next->v;
}
`

type queryResp struct {
	Unit    string `json:"unit"`
	Answers []struct {
		Query    string   `json:"query"`
		Verdict  string   `json:"verdict"`
		Witness  string   `json:"witness"`
		PointsTo []string `json:"points_to"`
	} `json:"answers"`
	Degradation *struct {
		Degraded bool   `json:"degraded"`
		Mode     string `json:"mode"`
	} `json:"degradation"`
}

// TestQueryEndpoint: the happy path — answers arrive in request order,
// the envelope records the query mode, and a repeated request is a
// byte-identical cache hit.
func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req := map[string]any{
		"source":  querySrc,
		"queries": []string{"mayalias(p, q); mayalias(p, p)", "pointsto(n1.next)"},
	}
	resp, body := post(t, ts.URL+"/v1/query", req, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResp
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Answers) != 3 {
		t.Fatalf("got %d answers, want 3: %s", len(qr.Answers), body)
	}
	if qr.Answers[0].Verdict != "no" {
		t.Errorf("mayalias(p, q) = %s, want no", qr.Answers[0].Verdict)
	}
	if qr.Answers[1].Verdict != "yes" || qr.Answers[1].Witness != "main.x" {
		t.Errorf("mayalias(p, p) = %s (%s), want yes (main.x)", qr.Answers[1].Verdict, qr.Answers[1].Witness)
	}
	if qr.Answers[2].Verdict != "ok" || len(qr.Answers[2].PointsTo) != 1 || qr.Answers[2].PointsTo[0] != "main.n2" {
		t.Errorf("pointsto(n1.next) = %v, want [main.n2]", qr.Answers[2].PointsTo)
	}
	if qr.Degradation == nil || qr.Degradation.Degraded || qr.Degradation.Mode != "query" {
		t.Errorf("envelope should record mode query without degradation: %s", body)
	}

	again, body2 := post(t, ts.URL+"/v1/query", req, nil)
	if again.StatusCode != 200 || again.Header.Get("X-Aliaslab-Cache") != "hit" {
		t.Fatalf("repeat: status %d cache %q", again.StatusCode, again.Header.Get("X-Aliaslab-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Errorf("cache hit differs from miss:\n%s\nvs\n%s", body, body2)
	}
}

// TestQueryValidation: the 400 surface — empty query lists, wrong
// backends, queries on the wrong endpoint, unparsable and unresolvable
// queries.
func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	cases := []struct {
		name string
		url  string
		req  map[string]any
		want string
	}{
		{"empty", "/v1/query", map[string]any{"source": cleanSrc}, "queries must not be empty"},
		{"backend", "/v1/query", map[string]any{"source": cleanSrc, "backend": "andersen", "queries": []string{"pointsto(p)"}}, "ci backend"},
		{"modular", "/v1/query", map[string]any{"source": cleanSrc, "modular": true, "queries": []string{"pointsto(p)"}}, "modular"},
		{"wrong-endpoint", "/v1/analyze", map[string]any{"source": cleanSrc, "queries": []string{"pointsto(p)"}}, "/v1/query only"},
		{"unparsable", "/v1/query", map[string]any{"source": cleanSrc, "queries": []string{"frobnicate(p)"}}, "frobnicate"},
		{"unresolvable", "/v1/query", map[string]any{"source": cleanSrc, "queries": []string{"pointsto(nosuch)"}}, "nosuch"},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+c.url, c.req, nil)
		if resp.StatusCode != 400 || !strings.Contains(string(body), c.want) {
			t.Errorf("%s: status %d, body %s (want 400 mentioning %q)", c.name, resp.StatusCode, body, c.want)
		}
	}
}

// TestQueryBudgetExhaustion: a per-request step cap that stops the
// demand solve mid-slice is a 503 with the unsound query envelope —
// the degraded unknown must never be served as an answer.
func TestQueryBudgetExhaustion(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, body := post(t, ts.URL+"/v1/query",
		map[string]any{"source": querySrc, "queries": []string{"pointsto(n1.next)"}},
		map[string]string{"X-Aliaslab-Max-Steps": "1"})
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d, Retry-After %q: %s", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	var eb struct {
		Degradation *struct {
			Degraded bool   `json:"degraded"`
			Sound    *bool  `json:"sound"`
			Mode     string `json:"mode"`
		} `json:"degradation"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	d := eb.Degradation
	if d == nil || !d.Degraded || d.Mode != "query" || d.Sound == nil || *d.Sound {
		t.Errorf("degraded query envelope: %s", body)
	}
}

// TestChaosQueryPanic: a panic injected into the query stage is that
// request's 500; neighbors and the process survive, and no goroutines
// leak.
func TestChaosQueryPanic(t *testing.T) {
	inj := inject(&fault{stage: "query", every: 2, do: panics})
	before := runtime.NumGoroutine()
	_, ts := newStagedServer(t, server.Config{CacheEntries: -1}, inj.hit)
	req := map[string]any{"source": querySrc, "queries": []string{"mayalias(p, q)"}}
	want := []int{200, 500, 200, 500}
	for i, w := range want {
		resp, body := post(t, ts.URL+"/v1/query", req, nil)
		if resp.StatusCode != w {
			t.Fatalf("request %d: status %d, want %d: %s", i, resp.StatusCode, w, body)
		}
		if w == 500 && !strings.Contains(string(body), "injected fault") {
			t.Errorf("500 body does not identify the injected panic: %s", body)
		}
	}
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != 200 {
		t.Error("server unhealthy after recovered query panics")
	}
	http.DefaultClient.CloseIdleConnections()
	waitForGoroutines(t, before)
}

// TestChaosQueryBudgetInjection: a synthetic budget violation at the
// query stage maps to the same 503 surface as a real exhaustion.
func TestChaosQueryBudgetInjection(t *testing.T) {
	inj := inject(&fault{stage: "query", every: 1, do: budget})
	_, ts := newStagedServer(t, server.Config{CacheEntries: -1}, inj.hit)
	resp, body := post(t, ts.URL+"/v1/query",
		map[string]any{"source": querySrc, "queries": []string{"pointsto(p)"}}, nil)
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d, Retry-After %q: %s", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if !strings.Contains(string(body), `"mode": "query"`) {
		t.Errorf("503 envelope does not carry the query mode: %s", body)
	}
}

// TestChaosQueryCachedBytesMatchClean: a query result cached under
// fault injection is byte-identical to the same request on a fault-free
// server.
func TestChaosQueryCachedBytesMatchClean(t *testing.T) {
	inj := inject(
		&fault{stage: "query", every: 2, do: panics},
		&fault{stage: "render", every: 2, do: slow, delay: time.Millisecond},
	)
	_, chaotic := newStagedServer(t, server.Config{}, inj.hit)
	_, clean := newTestServer(t, server.Config{})
	req := map[string]any{"source": querySrc, "queries": []string{"mayalias(p, q); pointsto(gp)"}}

	var chaosBody []byte
	for i := 0; i < 6; i++ {
		resp, body := post(t, chaotic.URL+"/v1/query", req, nil)
		if resp.StatusCode == 200 {
			chaosBody = body
			if resp.Header.Get("X-Aliaslab-Cache") == "hit" {
				break
			}
		}
	}
	if chaosBody == nil {
		t.Fatal("no successful response from the chaotic server in 6 tries")
	}
	resp, cleanBody := post(t, clean.URL+"/v1/query", req, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("clean server: %d", resp.StatusCode)
	}
	if !bytes.Equal(chaosBody, cleanBody) {
		t.Errorf("chaotic 200 differs from clean 200:\n%s\nvs\n%s", chaosBody, cleanBody)
	}
}
