package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// numShards fixes the fan-out of sharded counters. 16 padded slots cover
// typical server core counts without bloating each counter past 1 KiB.
const numShards = 16

// paddedInt64 occupies a full cache line so adjacent shards never
// false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded atomic counter. Add picks
// a shard via the per-thread math/rand/v2 fast path (lock-free and
// allocation-free), spreading contended increments across cache lines;
// Value sums the shards. The zero value is ready to use.
type Counter struct {
	shards [numShards]paddedInt64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	c.shards[rand.Uint64()%numShards].v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is an instantaneous value set and read atomically. The zero value
// is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// IntCounterVec is a family of Counters keyed by a small integer label
// (e.g. HTTP status). The hot path — With on an existing key — takes only
// a read lock and allocates nothing.
type IntCounterVec struct {
	mu sync.RWMutex
	m  map[int]*Counter
}

// NewIntCounterVec builds an empty family.
func NewIntCounterVec() *IntCounterVec {
	return &IntCounterVec{m: make(map[int]*Counter)}
}

// With returns the counter for key, creating it on first use.
func (v *IntCounterVec) With(key int) *Counter {
	v.mu.RLock()
	c, ok := v.m[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.m[key]; ok {
		return c
	}
	c = new(Counter)
	v.m[key] = c
	return c
}

// Keys returns the registered keys in ascending order.
func (v *IntCounterVec) Keys() []int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]int, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Value returns the total for key (0 if never observed).
func (v *IntCounterVec) Value(key int) int64 {
	v.mu.RLock()
	c := v.m[key]
	v.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// BucketHistogram is a fixed-bounds histogram in the Prometheus style:
// explicit upper bounds plus a +Inf overflow, an observation sum and a
// total count, all updated atomically so Observe takes no lock.
type BucketHistogram struct {
	bounds    []float64
	counts    []atomic.Int64           // len(bounds)+1; last is +Inf
	exemplars []atomic.Pointer[string] // len(bounds)+1; latest request ID per bucket
	sum       atomic.Uint64            // float64 bits, updated by CAS
	total     atomic.Int64
}

// NewBucketHistogram builds a histogram over the given ascending upper
// bounds.
func NewBucketHistogram(bounds []float64) *BucketHistogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &BucketHistogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Pointer[string], len(b)+1),
	}
}

// Observe records one value into the first bucket whose bound contains it.
func (h *BucketHistogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records v and keeps id as the bucket's latest exemplar,
// so a /metrics bucket links to a concrete request in the flight recorder
// (OpenMetrics-style). An empty id degrades to a plain Observe.
func (h *BucketHistogram) ObserveExemplar(v float64, id string) {
	if id != "" {
		i := sort.SearchFloat64s(h.bounds, v)
		h.exemplars[i].Store(&id)
	}
	h.Observe(v)
}

// Exemplar returns the latest exemplar ID recorded for bucket i ("" when
// none). Bucket indexing matches Counts: the final index is +Inf.
func (h *BucketHistogram) Exemplar(i int) string {
	if i < 0 || i >= len(h.exemplars) {
		return ""
	}
	if p := h.exemplars[i].Load(); p != nil {
		return *p
	}
	return ""
}

// Bounds returns the configured upper bounds.
func (h *BucketHistogram) Bounds() []float64 { return h.bounds }

// Counts returns a snapshot of per-bucket (non-cumulative) counts; the
// final element is the +Inf overflow bucket.
func (h *BucketHistogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Sum returns the sum of observed values.
func (h *BucketHistogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Total returns the number of observations.
func (h *BucketHistogram) Total() int64 { return h.total.Load() }

// HistogramSeries is h as a histogram family: cumulative buckets, each
// followed by its exemplar as a `# {request_id="…"}` comment when one was
// recorded, then the sum and count.
func HistogramSeries(name, help string, h *BucketHistogram) Series {
	return Series{Name: name, Type: "histogram", Help: help, Collect: func(w io.Writer) {
		counts, bounds := h.Counts(), h.Bounds()
		var cum int64
		for i, n := range counts {
			cum += n
			le := "+Inf"
			if i < len(bounds) {
				le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
			}
			fmt.Fprintf(w, "%s_bucket{le=%q} %d", name, le, cum)
			if ex := h.Exemplar(i); ex != "" {
				fmt.Fprintf(w, " # {request_id=%q}", ex)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum())
		fmt.Fprintf(w, "%s_count %d\n", name, h.Total())
	}}
}

// Series is one named metric family the Registry renders: HELP and TYPE
// lines followed by whatever samples Collect writes.
type Series struct {
	Name    string
	Type    string // "counter" or "gauge"
	Help    string
	Collect func(w io.Writer)
}

// Registry renders registered metric families in registration order, in
// the Prometheus text exposition format. Registration is expected at
// startup; Render may be called concurrently with metric updates.
type Registry struct {
	mu     sync.Mutex
	series []Series
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a metric family. Collect must be non-nil.
func (r *Registry) Register(s Series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series = append(r.series, s)
}

// Render renders every registered family in registration order.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	series := r.series
	r.mu.Unlock()
	for _, s := range series {
		s.Render(w)
	}
}

// Render writes the family on its own: HELP and TYPE lines, then samples.
func (s Series) Render(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help)
	fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Type)
	s.Collect(w)
}

// CounterSeries registers a sharded counter as a single-sample family.
func (r *Registry) CounterSeries(name, help string, c *Counter) {
	r.Register(Series{Name: name, Type: "counter", Help: help, Collect: func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, c.Value())
	}})
}

// GaugeSeries registers a gauge as a single-sample family.
func (r *Registry) GaugeSeries(name, help string, g *Gauge) {
	r.Register(Series{Name: name, Type: "gauge", Help: help, Collect: func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, g.Value())
	}})
}

// IntCounterFunc registers a counter family whose sample is read from fn
// at render time.
func (r *Registry) IntCounterFunc(name, help string, fn func() int64) {
	r.Register(Series{Name: name, Type: "counter", Help: help, Collect: func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, fn())
	}})
}

// IntGaugeFunc registers a gauge family whose sample is read from fn at
// render time.
func (r *Registry) IntGaugeFunc(name, help string, fn func() int64) {
	r.Register(Series{Name: name, Type: "gauge", Help: help, Collect: func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, fn())
	}})
}

// FloatCounterFunc registers a float-valued counter family (rendered %g)
// whose sample is read from fn at render time.
func (r *Registry) FloatCounterFunc(name, help string, fn func() float64) {
	r.Register(Series{Name: name, Type: "counter", Help: help, Collect: func(w io.Writer) {
		fmt.Fprintf(w, "%s %g\n", name, fn())
	}})
}
