package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"aliaslab/internal/backend"
	"aliaslab/internal/checkers"
	"aliaslab/internal/corpus"
	"aliaslab/internal/driver"
	"aliaslab/internal/limits"
	"aliaslab/internal/obs"
	"aliaslab/internal/query"
	"aliaslab/internal/report"
	"aliaslab/internal/solve"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

// mode distinguishes the three analysis endpoints.
type mode int

const (
	modeAnalyze mode = iota
	modeVet
	modeQuery
)

func (m mode) String() string {
	switch m {
	case modeVet:
		return "vet"
	case modeQuery:
		return "query"
	}
	return "analyze"
}

// Budget headers: per-request caps, clamped by the server's ceilings.
const (
	hdrMaxSteps  = "X-Aliaslab-Max-Steps"
	hdrMaxPairs  = "X-Aliaslab-Max-Pairs"
	hdrTimeoutMs = "X-Aliaslab-Timeout-Ms"

	// hdrCache reports how the response was produced: "miss" (fresh
	// solve), "hit" (LRU), or "dedup" (joined an in-flight identical
	// request). It lives in a header precisely so hit and miss bodies
	// stay byte-identical.
	hdrCache = "X-Aliaslab-Cache"
)

// request is the JSON body of /v1/analyze and /v1/vet.
type request struct {
	// Source is inline mini-C; Corpus names an embedded benchmark.
	// Exactly one must be set.
	Source string `json:"source,omitempty"`
	Corpus string `json:"corpus,omitempty"`

	// Backend picks the frontier point: cs, ci (default), andersen, or
	// steensgaard. Vet accepts ci/andersen/steensgaard only.
	Backend string `json:"backend,omitempty"`

	// Checkers filters the vet checker suite (default: all).
	Checkers []string `json:"checkers,omitempty"`

	// Queries is the /v1/query request payload: demand queries like
	// "mayalias(p, q)" or "pointsto(s.next)", answered by solving only
	// the slice of the program that can influence the queried
	// expressions (ci backend only). Answers are byte-identical to
	// evaluating the same queries on the exhaustive fixpoint.
	Queries []string `json:"queries,omitempty"`
}

// job is a validated request plus its effective (clamped) budget — the
// exact analysis identity the cache key hashes.
type job struct {
	mode   mode
	req    request
	kind   backend.Kind
	source string // canonicalized; empty for corpus jobs

	maxSteps, maxPairs int
	timeout            time.Duration
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error       string           `json:"error"`
	Degradation *report.Envelope `json:"degradation,omitempty"`
}

func errorResponse(status int, format string, args ...any) *response {
	return jsonResponse(status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func jsonResponse(status int, v any) *response {
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return &response{status: http.StatusInternalServerError,
			body: []byte(`{"error":"response encoding failed"}` + "\n")}
	}
	return &response{status: status, body: []byte(buf.String())}
}

// serve is the transport-side pipeline shared by both endpoints:
// parse → cache → single-flight → admission → process.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, m mode) {
	s.requests.Add(1)

	if s.Draining() {
		resp := errorResponse(http.StatusServiceUnavailable, "server is draining")
		resp.retryAfter = 1
		s.write(w, resp, "")
		return
	}

	j, resp := s.parse(r, m)
	if resp != nil {
		s.write(w, resp, "")
		return
	}

	key := j.key()
	if resp, ok := s.cache.Get(key); ok {
		s.write(w, resp, "hit")
		return
	}

	// Single-flight: the first request for this key leads; concurrent
	// duplicates wait on its outcome without consuming admission slots.
	f, leader := s.flights.join(key)
	if !leader {
		<-f.done
		s.write(w, f.resp, "dedup")
		return
	}

	// The leader answers for the whole herd, including a 429: if the
	// server cannot admit the one analysis the herd needs, every
	// duplicate is equally over capacity and backs off together.
	var out *response
	if !s.sem.TryAcquire() {
		out = errorResponse(http.StatusTooManyRequests,
			"server at capacity (%d analyses in flight)", s.sem.Cap())
		out.retryAfter = 1
	} else {
		func() {
			defer s.sem.Release()
			out = s.process(j)
		}()
		if out.cacheable {
			s.cache.Add(key, out)
		}
	}
	s.flights.publish(key, f, out)
	s.write(w, out, "miss")
}

// write renders one response. cacheStatus is empty for outcomes that
// never touched the cache path (parse errors, drain rejections).
func (s *Server) write(w http.ResponseWriter, resp *response, cacheStatus string) {
	s.reg.Counter("server.responses."+strconv.Itoa(resp.status), obs.Volatile).Add(1)
	w.Header().Set("Content-Type", "application/json")
	if cacheStatus != "" {
		w.Header().Set(hdrCache, cacheStatus)
	}
	if resp.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(resp.retryAfter))
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// parse validates the request into a job, or returns the error
// response to send instead.
func (s *Server) parse(r *http.Request, m mode) (*job, *response) {
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxSourceBytes)
	var req request
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, errorResponse(http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, errorResponse(http.StatusBadRequest, "malformed request: %v", err)
	}

	if (req.Source == "") == (req.Corpus == "") {
		return nil, errorResponse(http.StatusBadRequest,
			"exactly one of source and corpus must be set")
	}
	if req.Corpus != "" {
		if _, err := corpus.Get(req.Corpus); err != nil {
			return nil, errorResponse(http.StatusBadRequest, "%v", err)
		}
	}

	kind, err := backend.ParseKind(req.Backend)
	if err != nil {
		return nil, errorResponse(http.StatusBadRequest, "%v", err)
	}
	if m == modeVet {
		if _, err := solve.VetKind(kind.String()); err != nil {
			return nil, errorResponse(http.StatusBadRequest, "%v", err)
		}
		if _, err := checkers.Select(req.Checkers); err != nil {
			return nil, errorResponse(http.StatusBadRequest, "%v", err)
		}
	} else if len(req.Checkers) > 0 {
		return nil, errorResponse(http.StatusBadRequest, "checkers apply to /v1/vet only")
	}
	if m == modeQuery {
		if len(req.Queries) == 0 {
			return nil, errorResponse(http.StatusBadRequest, "queries must not be empty")
		}
		if kind != backend.CI {
			// Demand slicing solves the ci transfer functions; other
			// backends have no sliced solve.
			return nil, errorResponse(http.StatusBadRequest,
				"queries run on the ci backend, not %s", kind)
		}
		for _, src := range req.Queries {
			if _, err := query.ParseAll(src); err != nil {
				return nil, errorResponse(http.StatusBadRequest, "%v", err)
			}
		}
	} else if len(req.Queries) > 0 {
		return nil, errorResponse(http.StatusBadRequest, "queries apply to /v1/query only")
	}

	j := &job{mode: m, req: req, kind: kind, source: canonicalize(req.Source)}
	if j.maxSteps, err = s.headerCap(r, hdrMaxSteps, s.cfg.MaxSteps); err != nil {
		return nil, errorResponse(http.StatusBadRequest, "%v", err)
	}
	if j.maxPairs, err = s.headerCap(r, hdrMaxPairs, s.cfg.MaxPairs); err != nil {
		return nil, errorResponse(http.StatusBadRequest, "%v", err)
	}
	ms, err := s.headerCap(r, hdrTimeoutMs, int(s.cfg.DefaultTimeout/time.Millisecond))
	if err != nil {
		return nil, errorResponse(http.StatusBadRequest, "%v", err)
	}
	j.timeout = time.Duration(ms) * time.Millisecond
	if j.timeout <= 0 || j.timeout > s.cfg.MaxTimeout {
		j.timeout = s.cfg.MaxTimeout
	}
	return j, nil
}

// headerCap reads a non-negative integer header, clamped by the
// server's ceiling (a request may ask for less work than the server
// allows, never more). ceiling 0 means the server imposes no bound.
func (s *Server) headerCap(r *http.Request, name string, ceiling int) (int, error) {
	v := r.Header.Get(name)
	if v == "" {
		return ceiling, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("header %s: want a non-negative integer, got %q", name, v)
	}
	if ceiling > 0 && (n == 0 || n > ceiling) {
		return ceiling, nil
	}
	return n, nil
}

// canonicalize normalizes submitted source so trivially-equivalent
// submissions share one cache entry: CRLF to LF, exactly one trailing
// newline.
func canonicalize(src string) string {
	if src == "" {
		return ""
	}
	src = strings.ReplaceAll(src, "\r\n", "\n")
	return strings.TrimRight(src, "\n") + "\n"
}

// key hashes the job's full analysis identity. Any field that can
// change the response bytes is included; in particular the budget,
// because a different budget can degrade differently.
func (j *job) key() cacheKey {
	h := sha256.New()
	put := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	put(j.mode.String())
	put(j.kind.String())
	put(strings.Join(j.req.Checkers, ","))
	put(strings.Join(j.req.Queries, "\x00"))
	put(strconv.Itoa(j.maxSteps))
	put(strconv.Itoa(j.maxPairs))
	put(strconv.FormatInt(int64(j.timeout), 10))
	put(j.req.Corpus)
	put(j.source)
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// process runs one admitted job to a response. It never panics: the
// whole pipeline runs inside limits.Guard, so a crash in any stage —
// including an injected one — becomes this request's 500.
func (s *Server) process(j *job) *response {
	var resp *response
	err := limits.Guard("server."+j.mode.String(), func() error {
		resp = s.run(j)
		return nil
	})
	if err != nil {
		s.panics.Add(1)
		return errorResponse(http.StatusInternalServerError, "%v", err)
	}
	return resp
}

// hit runs the stage hook, if any, as the request enters stage. A
// non-nil error is a budget violation the caller serves as 503; the
// hook may also panic or sleep.
func (s *Server) hit(stage string) error {
	if s.stage == nil {
		return nil
	}
	return s.stage(stage)
}

// run is the analysis pipeline proper: load, solve, render, with a
// stage probe ahead of each.
func (s *Server) run(j *job) *response {
	// The job's budget is wall-clocked from solve start, detached from
	// the client connection: a single-flight leader's work must not die
	// with its particular client.
	budget := limits.Budget{MaxSteps: j.maxSteps, MaxPairs: j.maxPairs}
	budget, cancel := budget.WithTimeout(j.timeout)
	defer cancel()

	if err := s.hit("load"); err != nil {
		return s.exhausted(err)
	}
	opts := vdg.Options{Diagnostics: j.mode == modeVet}
	var u *driver.Unit
	var err error
	if j.req.Corpus != "" {
		u, err = corpus.Load(j.req.Corpus, opts)
	} else {
		u, err = driver.LoadString("request.c", j.source, opts)
	}
	if err != nil {
		return errorResponse(http.StatusBadRequest, "%v", err)
	}

	if err := s.hit("solve"); err != nil {
		return s.exhausted(err)
	}
	switch j.mode {
	case modeVet:
		return s.runVet(j, u, budget)
	case modeQuery:
		return s.runQuery(j, u, budget)
	}
	return s.runAnalyze(j, u, budget)
}

// exhausted maps a mid-flight budget violation (real or injected) to
// 503: the partial state is not a sound answer, so no result is served.
func (s *Server) exhausted(err error) *response { return s.exhaustedIn(err, "") }

// exhaustedIn is exhausted with the analysis mode recorded in the
// envelope, so a blown query stays distinguishable.
func (s *Server) exhaustedIn(err error, mode string) *response {
	s.degraded.Add(1)
	env := report.DegradedEnvelope(err.Error(), "").WithSound(false).WithMode(mode)
	resp := jsonResponse(http.StatusServiceUnavailable,
		errorBody{Error: "analysis budget exhausted: " + err.Error(), Degradation: &env})
	resp.retryAfter = 1
	return resp
}

// analyzeBody mirrors the CLI's -print json shape, plus the shared
// degradation envelope when the answer is not the full one.
type analyzeBody struct {
	Unit   string `json:"unit"`
	Label  string `json:"label"`
	Census struct {
		Total     int `json:"total"`
		Pointer   int `json:"pointer"`
		Function  int `json:"function"`
		Aggregate int `json:"aggregate"`
		Store     int `json:"store"`
	} `json:"pairs"`
	Reads       opsJSON          `json:"reads"`
	Writes      opsJSON          `json:"writes"`
	StoreAtExit []pairJSON       `json:"storeAtExit"`
	Degradation *report.Envelope `json:"degradation,omitempty"`
}

type opsJSON struct {
	Ops int     `json:"ops"`
	Avg float64 `json:"avgReferents"`
	Max int     `json:"maxReferents"`
}

type pairJSON struct {
	Path string `json:"path"`
	Ref  string `json:"referent"`
}

// runAnalyze solves the requested backend and renders the solution.
func (s *Server) runAnalyze(j *job, u *driver.Unit, budget limits.Budget) *response {
	o := solve.Solve(j.kind, u.Graph, budget, nil)
	var env *report.Envelope
	status := http.StatusOK
	if o.Degraded() {
		s.degraded.Add(1)
		e := report.DegradedEnvelope(o.Stopped.Error(), o.Tier.Rung()).WithSound(o.Sound)
		e.Notes = o.Notes
		env = &e
		if !o.Sound {
			// A partial fixpoint under-approximates; serving its sets as
			// a may-alias answer would be a lie.
			resp := jsonResponse(http.StatusServiceUnavailable, errorBody{
				Error:       "analysis budget exhausted: " + o.Stopped.Error(),
				Degradation: env,
			})
			resp.retryAfter = 1
			return resp
		}
		status = http.StatusPartialContent
	}
	sets := o.Sets

	if err := s.hit("render"); err != nil {
		return s.exhausted(err)
	}
	body := analyzeBody{Unit: u.Name, Label: o.Label, Degradation: env}
	census := stats.Census(u.Graph, sets)
	body.Census.Total = census.Total
	body.Census.Pointer = census.Pointer
	body.Census.Function = census.Function
	body.Census.Aggregate = census.Aggregate
	body.Census.Store = census.Store
	ops := stats.CountIndirect(u.Graph, sets)
	body.Reads = opsJSON{Ops: ops.Reads.Total, Avg: ops.Reads.Avg(), Max: ops.Reads.Max}
	body.Writes = opsJSON{Ops: ops.Writes.Total, Avg: ops.Writes.Avg(), Max: ops.Writes.Max}
	if u.Graph.Entry != nil && u.Graph.Entry.ReturnStore() != nil {
		if set := sets[u.Graph.Entry.ReturnStore()]; set != nil {
			for _, p := range set.Sorted() {
				body.StoreAtExit = append(body.StoreAtExit, pairJSON{Path: p.Path.String(), Ref: p.Ref.String()})
			}
			sort.Slice(body.StoreAtExit, func(i, k int) bool {
				if body.StoreAtExit[i].Path != body.StoreAtExit[k].Path {
					return body.StoreAtExit[i].Path < body.StoreAtExit[k].Path
				}
				return body.StoreAtExit[i].Ref < body.StoreAtExit[k].Ref
			})
		}
	}

	resp := jsonResponse(status, body)
	resp.cacheable = status == http.StatusOK
	return resp
}

// queryBody is the /v1/query response: the answers in request order,
// plus the shared envelope recording the demand-analysis mode (the
// answers are the exact exhaustive-fixpoint answers — the demand
// oracle enforces equality — so the envelope is not a degradation
// signal here, it names how the fixpoint was computed).
type queryBody struct {
	Unit        string           `json:"unit"`
	Answers     []query.Answer   `json:"answers"`
	Degradation *report.Envelope `json:"degradation,omitempty"`
}

// runQuery answers the request's demand queries over one unit. A
// budget blown mid-slice yields 503 like every other exhausted solve:
// the degraded "unknown" stands in for an answer, and serving it as
// one would be a lie. Semantic unknowns (an expression with no live
// occurrence) are real answers and serve as 200.
func (s *Server) runQuery(j *job, u *driver.Unit, budget limits.Budget) *response {
	if err := s.hit("query"); err != nil {
		return s.exhaustedIn(err, "query")
	}
	e := query.New(u.Graph, query.Options{Budget: budget, Registry: s.reg})
	var answers []query.Answer
	for _, src := range j.req.Queries {
		qs, err := query.ParseAll(src) // re-parse; validated in parse()
		if err != nil {
			return errorResponse(http.StatusBadRequest, "%v", err)
		}
		for _, q := range qs {
			ans, err := e.Query(q)
			if err != nil {
				// Unresolvable variable: a request problem, not a server one.
				return errorResponse(http.StatusBadRequest, "%v", err)
			}
			if ans.Degraded() {
				s.degraded.Add(1)
				env := report.DegradedEnvelope(ans.Reason, "").WithSound(false).WithMode("query")
				resp := jsonResponse(http.StatusServiceUnavailable, errorBody{
					Error:       "analysis budget exhausted: " + ans.Reason,
					Degradation: &env,
				})
				resp.retryAfter = 1
				return resp
			}
			answers = append(answers, ans)
		}
	}

	if err := s.hit("render"); err != nil {
		return s.exhaustedIn(err, "query")
	}
	env := report.Envelope{}.WithMode("query")
	resp := jsonResponse(http.StatusOK, queryBody{Unit: u.Name, Answers: answers, Degradation: &env})
	resp.cacheable = true
	return resp
}

// runVet solves a CI-shaped backend and runs the checker suite. A
// partial solution still vets (more useful than nothing) but the
// response is 206 with the same degradation envelope the CLI's -vet
// JSON uses: findings may be missing, a clean report certifies
// nothing.
func (s *Server) runVet(j *job, u *driver.Unit, budget limits.Budget) *response {
	o := solve.Solve(j.kind, u.Graph, budget, nil)
	sel, err := checkers.Select(j.req.Checkers)
	if err != nil {
		return errorResponse(http.StatusBadRequest, "%v", err)
	}
	diags := checkers.Run(checkers.NewContext(u.Graph, o.CI), sel)

	if err := s.hit("render"); err != nil {
		return s.exhausted(err)
	}
	var env *report.Envelope
	status := http.StatusOK
	if o.Stopped != nil {
		s.degraded.Add(1)
		status = http.StatusPartialContent
		e := report.DegradedEnvelope(o.Stopped.Error(), "")
		e.Notes = []string{"vet ran on a partial points-to solution; findings may be missing"}
		env = &e
	}
	var buf strings.Builder
	if err := report.WriteDiagsEnvelope(&buf, diags, env); err != nil {
		return errorResponse(http.StatusInternalServerError, "%v", err)
	}
	resp := &response{status: status, body: []byte(buf.String())}
	resp.cacheable = status == http.StatusOK
	return resp
}
