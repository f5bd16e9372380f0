package server_test

// The chaos suite: deterministic fault injection through the server's
// stage hook drives the failure paths the server promises to survive — panics
// isolated to their request, budgets blown mid-flight surfacing as
// labeled 503s, slow stages tripping deadlines into degradation — and
// asserts the process never crashes, never leaks goroutines, and keeps
// serving correct statuses throughout. Run with -race: the storm is
// also the server's concurrency test.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aliaslab/internal/limits"
	"aliaslab/internal/server"
)

// fault is one chaos rule. It fires on hits after, after+every,
// after+2*every, ... of its stage (1-based; after 0 means every), and
// then panics, sleeps delay, or returns a budget violation.
type fault struct {
	stage        string
	every, after int64
	do           action
	delay        time.Duration

	hits atomic.Int64
}

type action int

const (
	panics action = iota
	slow
	budget
)

func (f *fault) fire() bool {
	n := f.hits.Add(1)
	first := f.after
	if first == 0 {
		first = f.every
	}
	return n >= first && (n-first)%f.every == 0
}

// injector arms a server's stage hook with faults and counts how many
// fired. Hit counts are atomic, so a concurrent storm fires exactly
// the same number of faults per K hits on every run.
type injector struct {
	faults   []*fault
	injected atomic.Int64
}

func inject(faults ...*fault) *injector { return &injector{faults: faults} }

// hit is the stage hook.
func (in *injector) hit(stage string) error {
	for _, f := range in.faults {
		if f.stage != stage || !f.fire() {
			continue
		}
		in.injected.Add(1)
		switch f.do {
		case panics:
			panic(fmt.Sprintf("injected fault: panic at stage %q", stage))
		case slow:
			time.Sleep(f.delay)
		case budget:
			return &limits.Violation{Reason: limits.Steps}
		}
	}
	return nil
}

func (in *injector) count() int { return int(in.injected.Load()) }

// stages lists the distinct armed stages, sorted.
func (in *injector) stages() []string {
	var out []string
	for _, f := range in.faults {
		if !slices.Contains(out, f.stage) {
			out = append(out, f.stage)
		}
	}
	slices.Sort(out)
	return out
}

// newStagedServer is newTestServer with the stage hook set.
func newStagedServer(t *testing.T, cfg server.Config, stage func(string) error) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.NewWithStage(cfg, stage)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// The cadence is exact: every=N with after=K fires on hits K, K+N,
// K+2N, ... and nowhere else, and each firing is a *limits.Violation.
func TestCadence(t *testing.T) {
	in := inject(&fault{stage: "solve", every: 4, after: 2, do: budget})
	var fired []int
	for i := 1; i <= 12; i++ {
		if err := in.hit("solve"); err != nil {
			var v *limits.Violation
			if !errors.As(err, &v) {
				t.Fatalf("hit %d: fault is not a *limits.Violation: %v", i, err)
			}
			fired = append(fired, i)
		}
	}
	if !slices.Equal(fired, []int{2, 6, 10}) || in.count() != 3 {
		t.Fatalf("fired on %v (count %d), want [2 6 10]", fired, in.count())
	}
}

// Concurrent hits keep the firing count exact: K hits at every=N fire
// exactly K/N times.
func TestConcurrentCadenceExact(t *testing.T) {
	in := inject(&fault{stage: "solve", every: 5, do: budget})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				in.hit("solve")
			}
		}()
	}
	wg.Wait()
	if got, want := in.count(), workers*per/5; got != want {
		t.Fatalf("count() = %d, want %d", got, want)
	}
}

// TestChaosPanicIsolation: a panic injected into the solve stage turns
// into that request's 500 and nothing else — the neighbors succeed and
// the process keeps serving.
func TestChaosPanicIsolation(t *testing.T) {
	inj := inject(&fault{stage: "solve", every: 2, do: panics})
	// Cache disabled so every request walks the full pipeline.
	_, ts := newStagedServer(t, server.Config{CacheEntries: -1}, inj.hit)

	// every=2 fires on solve hits 2, 4, ...: statuses must alternate.
	names := []string{"part", "span", "allroots", "anagram"}
	want := []int{200, 500, 200, 500}
	for i, name := range names {
		resp, body := post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": name}, nil)
		if resp.StatusCode != want[i] {
			t.Fatalf("request %d (%s): status %d, want %d: %s", i, name, resp.StatusCode, want[i], body)
		}
		if want[i] == 500 && !strings.Contains(string(body), "injected fault") {
			t.Errorf("500 body does not identify the injected panic: %s", body)
		}
	}
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != 200 {
		t.Error("server unhealthy after recovered panics")
	}
	if inj.count() != 2 {
		t.Errorf("injected %d faults, want 2", inj.count())
	}
}

// TestChaosBudgetInjection: a synthetic mid-flight budget violation is
// served exactly like a real one — 503, Retry-After, unsound envelope.
func TestChaosBudgetInjection(t *testing.T) {
	inj := inject(&fault{stage: "load", every: 1, do: budget})
	_, ts := newStagedServer(t, server.Config{CacheEntries: -1}, inj.hit)
	resp, body := post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "part"}, nil)
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d, Retry-After %q: %s", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	var eb struct {
		Degradation *struct {
			Degraded bool  `json:"degraded"`
			Sound    *bool `json:"sound"`
		} `json:"degradation"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Degradation == nil || !eb.Degradation.Degraded || eb.Degradation.Sound == nil || *eb.Degradation.Sound {
		t.Errorf("injected budget violation envelope: %s", body)
	}
}

// TestChaosSlowTripsDeadline: a slow stage plus a short request
// deadline must degrade (the CI partial fixpoint is unsound → 503 with
// the deadline as the reason), not hang the pool.
func TestChaosSlowTripsDeadline(t *testing.T) {
	inj := inject(&fault{stage: "solve", every: 1, do: slow, delay: 150 * time.Millisecond})
	_, ts := newStagedServer(t, server.Config{CacheEntries: -1}, inj.hit)
	start := time.Now()
	resp, body := post(t, ts.URL+"/v1/analyze", map[string]string{"corpus": "part"},
		map[string]string{"X-Aliaslab-Timeout-Ms": "50"})
	if resp.StatusCode != 503 {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("503 reason does not name the deadline: %s", body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("slow request took %v; deadline did not cut it short", elapsed)
	}
}

// TestChaosStorm is the main event: faults armed in three pipeline
// stages (load, solve, render) with three failure modes (panic,
// budget, slow), a concurrent request storm mixing valid and invalid
// traffic over a small admission window. The server must answer every
// request with one of the contract's statuses, stay healthy, and leak
// no goroutines. The phases (after = 5, 5, 3, 13) are fixed so every
// run fires on the same hit numbers.
func TestChaosStorm(t *testing.T) {
	inj := inject(
		&fault{stage: "load", every: 13, after: 5, do: panics},
		&fault{stage: "solve", every: 7, after: 5, do: budget},
		&fault{stage: "render", every: 3, after: 3, do: slow, delay: time.Millisecond},
		&fault{stage: "solve", every: 17, after: 13, do: panics},
	)
	if got := inj.stages(); len(got) < 3 {
		t.Fatalf("chaos rules cover %d stages (%v), want >= 3", len(got), got)
	}

	before := runtime.NumGoroutine()
	s := server.NewWithStage(server.Config{MaxConcurrent: 4, CacheEntries: 8}, inj.hit)
	hs := httptest.NewServer(s)
	ts := hs.URL

	corpusNames := []string{"part", "span", "allroots", "anagram", "compress", "loader"}
	const workers = 8
	const perWorker = 12
	statuses := make(map[int]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var resp *http.Response
				switch i % 5 {
				case 0:
					resp, _ = post(t, ts+"/v1/analyze", map[string]string{"corpus": corpusNames[(w+i)%len(corpusNames)]}, nil)
				case 1:
					resp, _ = post(t, ts+"/v1/vet", map[string]string{"source": buggySrc}, nil)
				case 2: // invalid: both source and corpus
					resp, _ = post(t, ts+"/v1/analyze", map[string]string{"source": cleanSrc, "corpus": "part"}, nil)
				case 3: // unique source per worker to vary cache keys
					src := fmt.Sprintf("int g%d;\nint main(void) { int *p; p = &g%d; return *p; }\n", w, w)
					resp, _ = post(t, ts+"/v1/analyze", map[string]string{"source": src}, nil)
				case 4: // demand queries ride the same pipeline
					resp, _ = post(t, ts+"/v1/query",
						map[string]any{"source": cleanSrc, "queries": []string{"mayalias(p, g); pointsto(p)"}}, nil)
				}
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	allowed := map[int]bool{200: true, 206: true, 400: true, 429: true, 500: true, 503: true}
	total := 0
	for code, n := range statuses {
		total += n
		if !allowed[code] {
			t.Errorf("contract violation: %d requests answered %d", n, code)
		}
	}
	if total != workers*perWorker {
		t.Errorf("answered %d of %d requests", total, workers*perWorker)
	}
	if statuses[200] == 0 || statuses[400] == 0 {
		t.Errorf("storm too uniform to prove anything: %v", statuses)
	}
	if inj.count() == 0 {
		t.Error("storm fired no faults")
	}
	if resp, _ := http.Get(ts + "/healthz"); resp.StatusCode != 200 {
		t.Error("server unhealthy after the storm")
	}
	if s.InFlight() != 0 {
		t.Errorf("%d admission slots still held after the storm", s.InFlight())
	}
	t.Logf("storm statuses: %v, faults injected: %d", statuses, inj.count())

	// Goroutine hygiene: after the storm settles and the listener
	// closes, the count returns to the baseline.
	http.DefaultClient.CloseIdleConnections()
	hs.Close()
	waitForGoroutines(t, before)
}

// TestChaosCachedBytesMatchCleanServer: a result cached under fault
// injection is byte-identical to the same request answered by a
// fault-free server — chaos may fail requests, it may never corrupt
// the ones that succeed.
func TestChaosCachedBytesMatchCleanServer(t *testing.T) {
	inj := inject(
		&fault{stage: "solve", every: 2, do: panics},
		&fault{stage: "render", every: 2, do: slow, delay: time.Millisecond},
	)
	_, chaotic := newStagedServer(t, server.Config{}, inj.hit)
	_, clean := newTestServer(t, server.Config{})

	req := map[string]string{"corpus": "span", "backend": "andersen"}
	var chaosBody []byte
	for i := 0; i < 6; i++ {
		resp, body := post(t, chaotic.URL+"/v1/analyze", req, nil)
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
	resp, cleanBody := post(t, clean.URL+"/v1/analyze", req, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("clean server: %d", resp.StatusCode)
	}
	if !bytes.Equal(chaosBody, cleanBody) {
		t.Errorf("chaotic 200 differs from clean 200:\n%s\nvs\n%s", chaosBody, cleanBody)
	}
}

func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	// httptest and net/http keep a few service goroutines alive briefly;
	// allow slack but catch a per-request leak (96 requests would dwarf
	// it).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+10 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d now vs %d baseline\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
