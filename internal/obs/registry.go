package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Stability classifies a metric by what its final value depends on.
type Stability int

const (
	// Volatile metrics depend on wall clock, scheduling, or how the
	// solver orders its work (durations, allocation deltas, worklist
	// depth, meet counts). They render in human-readable output only.
	Volatile Stability = iota

	// Deterministic metrics are pure functions of the analysis results:
	// for a batch that completes without budget cancellation they are
	// identical at every worker-pool width, so they may appear in
	// byte-stable JSON output.
	Deterministic
)

func (s Stability) String() string {
	if s == Deterministic {
		return "deterministic"
	}
	return "volatile"
}

// Kind is a metric's shape.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry is a set of named metrics. Registration (the Counter/Gauge/
// Histogram lookups) takes a mutex and is expected at batch or unit
// granularity; the returned handles write with atomic operations only,
// so pool workers update shared metrics lock-free from any number of
// goroutines. All written values are counts — commutative sums — so
// the final state is independent of interleaving.
//
// A nil *Registry is a valid disabled registry: every lookup returns a
// nil handle and every handle method no-ops.
type Registry struct {
	mu sync.Mutex
	m  map[string]*metric
}

// NewRegistry builds an enabled registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]*metric)} }

// metric is the shared storage behind every handle kind.
type metric struct {
	name      string
	kind      Kind
	stability Stability

	val atomic.Int64 // counter/gauge value

	// histogram state: buckets[i] counts observations <= bounds[i];
	// buckets[len(bounds)] is the overflow bucket.
	bounds  []int64
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// lookup get-or-creates a metric, enforcing a stable (kind, stability)
// per name: re-registering with a different shape panics — that is a
// programming error, not a runtime condition.
func (r *Registry) lookup(name string, kind Kind, st Stability, bounds []int64) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.m[name]; ok {
		if m.kind != kind || m.stability != st {
			panic("obs: metric " + name + " re-registered with a different kind or stability")
		}
		return m
	}
	m := &metric{name: name, kind: kind, stability: st}
	if kind == KindHistogram {
		m.bounds = append([]int64(nil), bounds...)
		m.buckets = make([]atomic.Int64, len(bounds)+1)
	}
	r.m[name] = m
	return m
}

// Counter is a monotonically increasing count.
type Counter struct{ m *metric }

// Counter get-or-creates a counter handle.
func (r *Registry) Counter(name string, st Stability) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{m: r.lookup(name, KindCounter, st, nil)}
}

// Add increments the counter. Nil-safe, lock-free.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.m.val.Add(delta)
}

// Gauge is a last-write or running-maximum value.
type Gauge struct{ m *metric }

// Gauge get-or-creates a gauge handle.
func (r *Registry) Gauge(name string, st Stability) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{m: r.lookup(name, KindGauge, st, nil)}
}

// Set stores the value. Nil-safe, lock-free.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.m.val.Store(v)
}

// Max raises the gauge to v if v exceeds the current value.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.m.val.Load()
		if v <= cur || g.m.val.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution with count/sum/max.
type Histogram struct{ m *metric }

// Histogram get-or-creates a histogram handle with the given ascending
// bucket upper bounds (an implicit overflow bucket is appended). The
// bounds of the first registration win; they are part of the metric's
// identity and must not vary call to call.
func (r *Registry) Histogram(name string, st Stability, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	return &Histogram{m: r.lookup(name, KindHistogram, st, bounds)}
}

// PowersOfTwo returns histogram bounds 1, 2, 4, ... up to 2^(n-1).
func PowersOfTwo(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(1) << i
	}
	return out
}

// Observe records one value. Nil-safe, lock-free: a linear scan over
// the (short) bound slice plus three atomic adds and a CAS-max.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	m := h.m
	i := 0
	for i < len(m.bounds) && v > m.bounds[i] {
		i++
	}
	m.buckets[i].Add(1)
	m.count.Add(1)
	m.sum.Add(v)
	for {
		cur := m.max.Load()
		if v <= cur || m.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// MetricSnapshot is one metric's state at sampling time.
type MetricSnapshot struct {
	Name      string
	Kind      Kind
	Stability Stability

	// Value is the counter/gauge value.
	Value int64

	// Histogram state; Bounds/Buckets are nil for other kinds. Buckets
	// has one more element than Bounds (the overflow bucket).
	Count   int64
	Sum     int64
	Max     int64
	Bounds  []int64
	Buckets []int64
}

// Snapshot samples every metric, sorted by name (the deterministic
// rendering order). Nil-safe: a nil registry snapshots to nil.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.m))
	for _, m := range r.m {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	out := make([]MetricSnapshot, 0, len(ms))
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Kind: m.kind, Stability: m.stability, Value: m.val.Load()}
		if m.kind == KindHistogram {
			s.Count, s.Sum, s.Max = m.count.Load(), m.sum.Load(), m.max.Load()
			s.Bounds = append([]int64(nil), m.bounds...)
			s.Buckets = make([]int64, len(m.buckets))
			for i := range m.buckets {
				s.Buckets[i] = m.buckets[i].Load()
			}
		}
		out = append(out, s)
	}
	return out
}

// DeterministicSnapshot samples only the Deterministic-class metrics:
// the subset safe to render into byte-stable output.
func (r *Registry) DeterministicSnapshot() []MetricSnapshot {
	all := r.Snapshot()
	out := make([]MetricSnapshot, 0, len(all))
	for _, s := range all {
		if s.Stability == Deterministic {
			out = append(out, s)
		}
	}
	return out
}
