// Package service is the model-serving daemon behind cmd/numaiod: an HTTP
// JSON API (stdlib net/http only) that characterizes machines with
// Algorithm 1 once, caches the resulting models by topology fingerprint,
// and serves predictions (Eq. 1), placements (internal/sched and
// internal/cluster policies) and what-if diffs hot.
//
// The paper's Sec. V-B point is that characterization is expensive and
// should be amortized; the cache plus singleflight coalescing in this
// package is the systems embodiment of that: a fleet of identical requests
// costs one characterization.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"numaio/internal/cli"
	"numaio/internal/core"
	"numaio/internal/fabric"
	"numaio/internal/httpobs"
	"numaio/internal/numa"
	"numaio/internal/resilience"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
)

// ErrCircuitOpen is returned (as a 503) when a model's circuit breaker is
// open after repeated characterization failures and no stale fallback
// exists.
var ErrCircuitOpen = errors.New("service: characterization suspended (circuit open)")

// CharacterizeFunc runs Algorithm 1 for a whole machine. The daemon uses
// the real characterizer; tests inject counters or stubs. The context
// carries the request deadline — implementations should abandon work when
// it is done.
type CharacterizeFunc func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error)

// DefaultCharacterize boots a simulated system on the machine and runs the
// whole-host characterization.
func DefaultCharacterize(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sys, err := numa.NewSystem(m)
	if err != nil {
		return nil, err
	}
	c, err := core.NewCharacterizer(sys, cfg)
	if err != nil {
		return nil, err
	}
	return c.CharacterizeAll()
}

// Config tunes the daemon.
type Config struct {
	// Workers bounds concurrent characterizations; 0 means 4.
	Workers int
	// Parallelism is the worker-pool width each characterization fans its
	// (target, mode) sweeps over (core.Config.Parallelism); 0 means the
	// pool width (Workers). Parallelism changes wall time only, never the
	// model, so it is excluded from cache keys.
	Parallelism int
	// CacheEntries bounds the model cache; 0 means 64.
	CacheEntries int
	// CacheTTL expires cached models; 0 means 1 hour, negative disables
	// expiry.
	CacheTTL time.Duration
	// RespCacheEntries bounds the per-endpoint response caches (rendered
	// predict/place bodies keyed by canonical request shape); 0 means 1024,
	// negative disables response caching. Entries share CacheTTL — they are
	// deterministic, so the TTL only bounds memory.
	RespCacheEntries int
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
	// Characterize overrides the Algorithm 1 runner (tests); nil uses
	// DefaultCharacterize.
	Characterize CharacterizeFunc

	// RequestTimeout bounds each request's context; 0 means no limit. A
	// characterization that overruns it is abandoned and reported as 504.
	RequestTimeout time.Duration
	// Retries is the retry budget for a failed characterization, with
	// exponential backoff from RetryBackoff between attempts; 0 disables
	// retrying (the historical behaviour).
	Retries int
	// RetryBackoff is the base backoff between retries; 0 means 100ms.
	RetryBackoff time.Duration
	// BreakerThreshold opens a per-model circuit breaker after this many
	// consecutive characterization failures, so a persistently failing
	// machine stops consuming worker slots; 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// a probe; 0 means 30s.
	BreakerCooldown time.Duration
	// Clock drives request deadlines, retry backoff and breaker
	// cooldowns; nil means the system clock. Tests inject fakes so
	// resilience paths run without real sleeps.
	Clock resilience.Clock

	// PullClient performs outbound model fetches for the replication pull
	// hook (POST /v1/models/pull); nil means a 30s-timeout client.
	PullClient *http.Client

	// FlightRecorderSize bounds the always-on flight recorder ring (recent
	// request and resilience events, dumped via /debug/flightrecorder and
	// on failures); 0 means 4096 events, negative disables the recorder.
	FlightRecorderSize int
	// FlightDump, when non-nil, receives an automatic flight-recorder dump
	// on request failure (5xx) and breaker-open transitions, rate-limited
	// to one dump per second. cmd/numaiod points it at stderr.
	FlightDump io.Writer
}

// Server is the daemon state: cache, worker pool, job registry, metrics
// and the HTTP handler tree.
type Server struct {
	log          *slog.Logger
	cache        *ModelCache
	predictCache *RespCache
	placeCache   *RespCache
	pool         *Pool
	jobs         *JobRegistry
	metrics      *Metrics
	registry     *telemetry.Registry
	mux          *http.ServeMux
	characterize CharacterizeFunc
	parallelism  int
	pullClient   *http.Client

	// installs counts models installed by the fleet replication hooks
	// (push or pull) — the numaiod_models_installed_total series.
	installs telemetry.Counter

	// obs is the shared request middleware and debug surface: request
	// counters and latency, /debug/trace and the flight recorder.
	obs *httpobs.Obs

	retry            resilience.RetryPolicy
	breakerThreshold int
	breakerCooldown  time.Duration
	clock            resilience.Clock

	// breakers holds a circuit breaker per model key only while that key
	// has unrecovered characterization failures.
	brMu     sync.Mutex
	breakers map[string]*resilience.Breaker
}

// New builds a server from the config.
func New(cfg Config) *Server {
	ttl := cfg.CacheTTL
	if ttl == 0 {
		ttl = time.Hour
	}
	logger := cfg.Logger
	if logger == nil {
		logger = cli.Logger(true)
	}
	ch := cfg.Characterize
	if ch == nil {
		ch = DefaultCharacterize
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	parallelism := cfg.Parallelism
	if parallelism <= 0 {
		parallelism = workers
	}
	clock := cfg.Clock
	if clock == nil {
		clock = resilience.SystemClock{}
	}
	backoff := cfg.RetryBackoff
	if backoff == 0 {
		backoff = 100 * time.Millisecond
	}
	cooldown := cfg.BreakerCooldown
	if cooldown == 0 {
		cooldown = 30 * time.Second
	}
	pullClient := cfg.PullClient
	if pullClient == nil {
		pullClient = &http.Client{Timeout: 30 * time.Second}
	}
	s := &Server{
		log:          logger,
		cache:        NewModelCache(cfg.CacheEntries, ttl),
		predictCache: NewRespCache(cfg.RespCacheEntries, ttl),
		placeCache:   NewRespCache(cfg.RespCacheEntries, ttl),
		pool:         NewPool(workers),
		jobs:         NewJobRegistry(),
		metrics:      NewMetrics(),
		mux:          http.NewServeMux(),
		characterize: ch,
		parallelism:  parallelism,
		pullClient:   pullClient,
		obs: httpobs.New(httpobs.Config{
			Name:               "numaiod",
			Logger:             logger,
			FlightRecorderSize: cfg.FlightRecorderSize,
			FlightDump:         cfg.FlightDump,
			RequestTimeout:     cfg.RequestTimeout,
			Clock:              clock,
		}),

		retry:            resilience.RetryPolicy{MaxRetries: cfg.Retries, Base: backoff},
		breakerThreshold: cfg.BreakerThreshold,
		breakerCooldown:  cooldown,
		clock:            clock,
		breakers:         make(map[string]*resilience.Breaker),
	}
	s.metrics.SetParallelism(parallelism)
	s.registry = newExtraRegistry(s)
	s.routes()
	return s
}

// newExtraRegistry builds the telemetry registry rendered after the
// historical metrics block on /metrics: solver and pool counters from
// internal/fabric, measurement-worker occupancy from internal/core, and
// the shared debug surface (trace and flight state, request latency).
func newExtraRegistry(s *Server) *telemetry.Registry {
	r := telemetry.NewRegistry()
	r.IntCounterFunc("numaiod_solver_solves_total",
		"Successful fabric solver passes (water-filling allocations).",
		func() int64 { return fabric.ReadStats().Solves })
	r.FloatCounterFunc("numaiod_solver_solve_seconds_total",
		"Total wall time spent in fabric solver passes.",
		func() float64 { return float64(fabric.ReadStats().SolveNanos) / 1e9 })
	r.IntCounterFunc("numaiod_solver_resets_total",
		"Solver flow-set resets (fluid-session reuse between runs).",
		func() int64 { return fabric.ReadStats().Resets })
	r.IntCounterFunc("numaiod_solver_incremental_total",
		"Solver passes served from converged state (dirty components only).",
		func() int64 { return fabric.ReadStats().IncrementalSolves })
	r.IntCounterFunc("numaiod_solver_full_total",
		"Solver passes that re-leveled every flow from scratch.",
		func() int64 { return fabric.ReadStats().FullSolves })
	r.IntCounterFunc("numaiod_solver_pool_hits_total",
		"AcquireSolver calls served from the solver pool.",
		func() int64 { return fabric.ReadStats().PoolHits() })
	r.IntCounterFunc("numaiod_solver_pool_misses_total",
		"AcquireSolver calls that constructed a fresh solver.",
		func() int64 { return fabric.ReadStats().PoolNews })
	r.IntCounterFunc("numaiod_models_installed_total",
		"Models installed by the fleet replication hooks (push or pull).",
		s.installs.Value)
	r.IntGaugeFunc("numaiod_measure_workers_busy",
		"Measurement workers currently executing a characterization cell.",
		core.ActiveMeasureWorkers)
	s.obs.RegisterDebug(r)
	return r
}

func (s *Server) routes() {
	handle := func(pattern, endpoint string, h http.HandlerFunc) { s.obs.Handle(s.mux, pattern, endpoint, h) }
	handle("GET /healthz", "/healthz", s.handleHealthz)
	handle("POST /v1/characterize", "/v1/characterize", s.handleCharacterize)
	handle("GET /v1/models/{fingerprint}", "/v1/models", s.handleModel)
	handle("PUT /v1/models/{fingerprint}", "/v1/models", s.handleModelInstall)
	handle("POST /v1/models/pull", "/v1/models/pull", s.handleModelPull)
	handle("GET /v1/jobs/{id}", "/v1/jobs", s.handleJob)
	handle("POST /v1/predict", "/v1/predict", s.handlePredict)
	handle("POST /v1/predict/batch", "/v1/predict/batch", s.handlePredictBatch)
	handle("POST /v1/place", "/v1/place", s.handlePlace)
	handle("POST /v1/whatif", "/v1/whatif", s.handleWhatif)
	s.obs.Mount(s.mux, s.WriteMetrics)
}

// WriteMetrics renders the full /metrics payload: request counts, the
// historical block, then the additive registry series. Exported so tests can pin the
// exposition format without an HTTP round trip.
func (s *Server) WriteMetrics(w io.Writer) {
	s.obs.RequestsSeries().Render(w)
	s.metrics.WriteTo(w, s.cache.Stats(), s.predictCache.Stats(), s.placeCache.Stats(),
		s.pool.InFlight(), s.openBreakers())
	s.registry.Render(w)
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the model cache (metrics, tests).
func (s *Server) Cache() *ModelCache { return s.cache }

// Obs exposes the request middleware and debug surface: request counts,
// the flight recorder and its SIGQUIT dump.
func (s *Server) Obs() *httpobs.Obs { return s.obs }

// Drain stops admitting async work and waits for in-flight jobs, honouring
// ctx as the deadline. Call after http.Server.Shutdown during graceful
// termination.
func (s *Server) Drain(ctx context.Context) error { return s.pool.Drain(ctx) }

// characterizeCached resolves the machine's fingerprint and returns its
// whole-host model, computing it at most once per (fingerprint, config)
// across concurrent callers. The first bool reports a cache (or coalesced)
// hit; the second reports a stale entry served because recomputation
// failed or its circuit breaker is open (graceful degradation: the last
// good model beats a 500).
func (s *Server) characterizeCached(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, string, bool, bool, error) {
	fp, err := topology.Fingerprint(m)
	if err != nil {
		return nil, "", false, false, err
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = s.parallelism
	}
	// Record onto the active /debug/trace, if one is running. The tracer
	// shapes no results and configKey never includes it, so traced and
	// untraced runs share cache entries.
	cfg.Tracer = s.obs.Traces().Active()
	key := fp + "|" + configKey(cfg)

	if !s.breakerAllows(key) {
		if mm, ok := s.cache.GetStale(key); ok {
			s.metrics.ObserveStaleServed()
			return mm, fp, true, true, nil
		}
		return nil, fp, false, false, fmt.Errorf("%w: model %s", ErrCircuitOpen, fp)
	}

	// Stage attribution: queue is the wait for a worker slot, solve the
	// characterization itself (retries included), and cache whatever is
	// left of the lookup — map access plus coalescing waits. A coalesced
	// follower spends its whole wall time here under "cache", which is
	// accurate: it waited on the cache, not on a solver.
	stg := telemetry.StagesFromContext(ctx)
	cacheStart := time.Now()
	mm, cached, err := s.cache.GetOrCompute(key, func() (*core.MachineModel, error) {
		queueStart := time.Now()
		if err := s.pool.Acquire(ctx); err != nil {
			return nil, err
		}
		stg.Add("queue", time.Since(queueStart))
		defer s.pool.Release()
		start := time.Now()
		var mm *core.MachineModel
		rerr := resilience.Retry(ctx, s.clock, s.retry, func(attempt int) error {
			if attempt > 0 {
				s.metrics.ObserveCharacterizeRetry()
				s.log.Warn("retrying characterization", "fingerprint", fp, "attempt", attempt)
			}
			var cerr error
			mm, cerr = s.characterize(ctx, m, cfg)
			if cerr != nil && ctx.Err() == nil {
				// Everything but a dead request context is worth a retry.
				return resilience.MarkTransient(cerr)
			}
			return cerr
		})
		stg.Add("solve", time.Since(start))
		if rerr != nil {
			return nil, rerr
		}
		s.metrics.ObserveCharacterization(time.Since(start))
		mm.Fingerprint = fp
		return mm, nil
	})
	if stg != nil {
		if d := time.Since(cacheStart) - stg.Get("queue") - stg.Get("solve"); d > 0 {
			stg.Add("cache", d)
		}
	}
	// Only the caller that actually computed (or failed to) moves the
	// breaker; cache hits and coalesced followers say nothing about the
	// machine's health.
	if !cached {
		s.breakerRecord(key, err)
	}
	if err != nil {
		if mm, ok := s.cache.GetStale(key); ok {
			s.log.Warn("serving stale model after failed recomputation",
				"fingerprint", fp, "error", err)
			s.metrics.ObserveStaleServed()
			return mm, fp, true, true, nil
		}
		return nil, fp, false, false, err
	}
	return mm, fp, cached, false, nil
}

// breakerAllows reports whether key's circuit breaker admits a
// characterization. A key without a breaker has no unrecovered failures,
// so it is admitted.
func (s *Server) breakerAllows(key string) bool {
	if s.breakerThreshold <= 0 {
		return true
	}
	s.brMu.Lock()
	br := s.breakers[key]
	s.brMu.Unlock()
	return br == nil || br.Allow()
}

// breakerRecord moves key's breaker by one characterization outcome. A
// failure creates the breaker on first use; a success closes it and drops
// it, so the map holds only keys with unrecovered failures and does not
// grow with the number of machines served. The breaker itself is moved
// outside brMu: its transition hook may write a flight dump.
func (s *Server) breakerRecord(key string, err error) {
	if s.breakerThreshold <= 0 {
		return
	}
	s.brMu.Lock()
	br := s.breakers[key]
	if br == nil && err != nil {
		br = s.newBreaker(key)
		s.breakers[key] = br
	}
	s.brMu.Unlock()
	switch {
	case err != nil:
		br.Failure()
	case br != nil:
		br.Success()
		s.brMu.Lock()
		if s.breakers[key] == br && br.State() == resilience.BreakerClosed {
			delete(s.breakers, key)
		}
		s.brMu.Unlock()
	}
}

// newBreaker builds key's breaker, with its transitions recorded on the
// active trace and the flight recorder and an open dumping the recorder.
func (s *Server) newBreaker(key string) *resilience.Breaker {
	br := resilience.NewBreaker(s.breakerThreshold, s.breakerCooldown, s.clock)
	br.SetTransitionHook(func(from, to resilience.BreakerState) {
		s.obs.Traces().Active().Instant("breaker-"+to.String(), "resilience",
			telemetry.String("from", from.String()),
			telemetry.String("key", key))
		s.obs.Flight().Record(telemetry.FlightEvent{
			Time:   time.Now().UnixNano(),
			Name:   "breaker-" + to.String(),
			Cat:    "resilience",
			Detail: "key=" + key + " from=" + from.String(),
		})
		if to == resilience.BreakerOpen {
			s.obs.Dump("breaker open: " + key)
		}
	})
	return br
}

// openBreakers counts breakers currently open — the numaiod_breaker_open
// gauge.
func (s *Server) openBreakers() int {
	s.brMu.Lock()
	defer s.brMu.Unlock()
	open := 0
	for _, br := range s.breakers {
		if br.State() == resilience.BreakerOpen {
			open++
		}
	}
	return open
}

// errStatus maps a characterization failure to its HTTP status: dead
// deadlines are the gateway's fault (504), an open breaker is explicit
// back-pressure (503), anything else is a plain 500.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrCircuitOpen):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// configKey canonicalizes the characterization options that shape a model
// — the shared suffix of model- and response-cache keys. Parallelism is
// deliberately absent: parallel and serial characterizations are
// bit-identical, so they share cache entries.
func configKey(cfg core.Config) string {
	return fmt.Sprintf("t%d r%d b%d g%g s%g",
		cfg.Threads, cfg.Repeats, int64(cfg.BytesPerThread), cfg.GapThreshold, cfg.Sigma)
}

// writeJSONCached renders v once, serves it, and retains the bytes in
// cache under key when the response is a 200 — the store half of the
// serving fast lane.
func writeJSONCached(w http.ResponseWriter, status int, v any, cache *RespCache, key string) {
	if status != http.StatusOK || cache == nil {
		httpobs.WriteJSON(w, status, v)
		return
	}
	body, err := httpobs.EncodeJSON(w, v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	cache.Put(key, body)
	httpobs.WriteJSONBytes(w, status, body)
}
