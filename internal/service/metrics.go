package service

import (
	"fmt"
	"io"
	"time"

	"numaio/internal/telemetry"
)

// Metrics is the daemon's characterization metric state, built on the
// telemetry package's sharded atomic primitives so no update takes a
// global lock. Request counts and latency live in the shared middleware
// (internal/httpobs). WriteTo renders the historical Prometheus-style text
// byte-for-byte — every pre-existing metric name and ordering is preserved
// (serve-smoke greps and scrapers depend on it).
type Metrics struct {
	// lat is the characterization latency histogram (seconds).
	lat *telemetry.BucketHistogram

	// parallelism is the daemon's configured measurement worker-pool
	// width, exported as a gauge so latency shifts can be correlated with
	// the setting.
	parallelism telemetry.Gauge

	// Resilience counters: characterization attempts retried after a
	// failure, and responses served from an expired cache entry because
	// recomputation failed (or its breaker was open).
	charRetries telemetry.Counter
	staleServed telemetry.Counter
}

// defaultLatencyBuckets cover sub-millisecond simulated runs up to
// multi-second whole-host characterizations.
var defaultLatencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{lat: telemetry.NewBucketHistogram(defaultLatencyBuckets)}
}

// SetParallelism records the daemon's measurement worker-pool width.
func (m *Metrics) SetParallelism(p int) { m.parallelism.Set(int64(p)) }

// ObserveCharacterizeRetry counts one retried characterization attempt.
func (m *Metrics) ObserveCharacterizeRetry() { m.charRetries.Inc() }

// ObserveStaleServed counts one response served from a stale model.
func (m *Metrics) ObserveStaleServed() { m.staleServed.Inc() }

// StaleServed returns the stale-response counter (tests).
func (m *Metrics) StaleServed() int64 { return m.staleServed.Value() }

// ObserveCharacterization records one Algorithm 1 run's wall time.
func (m *Metrics) ObserveCharacterization(d time.Duration) {
	m.lat.Observe(d.Seconds())
}

// WriteTo renders the characterization metrics (plus the supplied cache,
// job and breaker gauges) in the Prometheus text exposition format.
func (m *Metrics) WriteTo(w io.Writer, cache CacheStats, predict, place RespCacheStats, inflightJobs int64, openBreakers int) {
	telemetry.HistogramSeries("numaiod_characterize_seconds",
		"Wall time of Algorithm 1 characterizations.", m.lat).Render(w)

	fmt.Fprintln(w, "# HELP numaiod_characterize_parallelism Configured measurement worker-pool width.")
	fmt.Fprintln(w, "# TYPE numaiod_characterize_parallelism gauge")
	fmt.Fprintf(w, "numaiod_characterize_parallelism %d\n", m.parallelism.Value())

	fmt.Fprintln(w, "# HELP numaiod_model_cache Model cache activity.")
	fmt.Fprintln(w, "# TYPE numaiod_model_cache counter")
	fmt.Fprintf(w, "numaiod_model_cache{event=\"hit\"} %d\n", cache.Hits)
	fmt.Fprintf(w, "numaiod_model_cache{event=\"miss\"} %d\n", cache.Misses)
	fmt.Fprintf(w, "numaiod_model_cache{event=\"coalesced\"} %d\n", cache.Coalesced)
	fmt.Fprintf(w, "numaiod_model_cache{event=\"eviction\"} %d\n", cache.Evictions)
	fmt.Fprintln(w, "# HELP numaiod_model_cache_entries Live model cache entries.")
	fmt.Fprintln(w, "# TYPE numaiod_model_cache_entries gauge")
	fmt.Fprintf(w, "numaiod_model_cache_entries %d\n", cache.Entries)

	fmt.Fprintln(w, "# HELP numaiod_predict_cache_hits_total Predict responses served from the response cache.")
	fmt.Fprintln(w, "# TYPE numaiod_predict_cache_hits_total counter")
	fmt.Fprintf(w, "numaiod_predict_cache_hits_total %d\n", predict.Hits)
	fmt.Fprintln(w, "# HELP numaiod_predict_cache_misses_total Predict requests that missed the response cache.")
	fmt.Fprintln(w, "# TYPE numaiod_predict_cache_misses_total counter")
	fmt.Fprintf(w, "numaiod_predict_cache_misses_total %d\n", predict.Misses)
	fmt.Fprintln(w, "# HELP numaiod_predict_cache_entries Rendered predict responses currently cached.")
	fmt.Fprintln(w, "# TYPE numaiod_predict_cache_entries gauge")
	fmt.Fprintf(w, "numaiod_predict_cache_entries %d\n", predict.Entries)
	fmt.Fprintln(w, "# HELP numaiod_place_cache_hits_total Place responses served from the response cache.")
	fmt.Fprintln(w, "# TYPE numaiod_place_cache_hits_total counter")
	fmt.Fprintf(w, "numaiod_place_cache_hits_total %d\n", place.Hits)
	fmt.Fprintln(w, "# HELP numaiod_place_cache_misses_total Place requests that missed the response cache.")
	fmt.Fprintln(w, "# TYPE numaiod_place_cache_misses_total counter")
	fmt.Fprintf(w, "numaiod_place_cache_misses_total %d\n", place.Misses)
	fmt.Fprintln(w, "# HELP numaiod_place_cache_entries Rendered place responses currently cached.")
	fmt.Fprintln(w, "# TYPE numaiod_place_cache_entries gauge")
	fmt.Fprintf(w, "numaiod_place_cache_entries %d\n", place.Entries)
	fmt.Fprintln(w, "# HELP numaiod_inflight_jobs Characterizations currently holding a worker slot.")
	fmt.Fprintln(w, "# TYPE numaiod_inflight_jobs gauge")
	fmt.Fprintf(w, "numaiod_inflight_jobs %d\n", inflightJobs)

	fmt.Fprintln(w, "# HELP numaiod_characterize_retries_total Characterization attempts retried after a failure.")
	fmt.Fprintln(w, "# TYPE numaiod_characterize_retries_total counter")
	fmt.Fprintf(w, "numaiod_characterize_retries_total %d\n", m.charRetries.Value())
	fmt.Fprintln(w, "# HELP numaiod_stale_served_total Responses served from an expired cache entry after a failed recomputation.")
	fmt.Fprintln(w, "# TYPE numaiod_stale_served_total counter")
	fmt.Fprintf(w, "numaiod_stale_served_total %d\n", m.staleServed.Value())
	fmt.Fprintln(w, "# HELP numaiod_stale_models Expired models retained as stale fallbacks.")
	fmt.Fprintln(w, "# TYPE numaiod_stale_models gauge")
	fmt.Fprintf(w, "numaiod_stale_models %d\n", cache.Stale)
	fmt.Fprintln(w, "# HELP numaiod_breaker_open Characterization circuit breakers currently open.")
	fmt.Fprintln(w, "# TYPE numaiod_breaker_open gauge")
	fmt.Fprintf(w, "numaiod_breaker_open %d\n", openBreakers)
}
