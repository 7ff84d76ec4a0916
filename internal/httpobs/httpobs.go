// Package httpobs is the request middleware and debug surface numaiod and
// numaiogw share, so both daemons attribute, count, trace and log every
// request the same way. Each daemon builds one Obs under its name
// ("numaiod" or "numaiogw"), which prefixes its metric families, names its
// trace download and heads its flight-recorder dumps.
//
// Per request, the middleware caps the body at MaxBodyBytes, echoes the
// X-Request-Id (minting one when none arrives), derives a child X-Trace-Ctx
// span, applies the optional request deadline and records a span on the
// active /debug/trace recording. v1 endpoints also get a Server-Timing
// stage breakdown, a latency observation with the request ID as exemplar,
// a flight-recorder event and, on a 5xx, a rate-limited flight dump.
// Every request is counted by endpoint and status, and logged when the
// logger is enabled at Info.
package httpobs

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"numaio/internal/cli"
	"numaio/internal/resilience"
	"numaio/internal/telemetry"
)

// RequestIDHeader carries the request ID across hops (client → gateway →
// replica) and back on every response, joining one logical request's log
// lines, flight events and exemplars.
const RequestIDHeader = "X-Request-Id"

// MaxBodyBytes caps every request body on both daemons; a larger body is
// answered with 413. 4 MiB holds the largest model a replica exchanges
// (hp-blade32, about 230 KB of JSON) many times over.
const MaxBodyBytes = 4 << 20

// latencyBuckets cover cache-hit responses (tens of microseconds) up to
// characterize-on-miss requests.
var latencyBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 5}

// Config builds an Obs.
type Config struct {
	// Name is the daemon's name: metric prefix, trace download filename
	// and dump banner.
	Name string
	// Logger receives the request log; nil discards it.
	Logger *slog.Logger
	// FlightRecorderSize bounds the flight recorder ring; 0 means 4096
	// events, negative disables the recorder.
	FlightRecorderSize int
	// FlightDump, when non-nil, receives a flight dump on every 5xx and on
	// Dump, at most one per second.
	FlightDump io.Writer
	// RequestTimeout, when positive, becomes each request's deadline on
	// Clock (nil means the system clock).
	RequestTimeout time.Duration
	Clock          resilience.Clock
}

// Obs is one daemon's observability state: request counters and latency,
// the /debug/trace lifecycle and the flight recorder.
type Obs struct {
	name       string
	log        *slog.Logger
	timeout    time.Duration
	clock      resilience.Clock
	flight     *telemetry.FlightRecorder
	flightDump io.Writer
	lastDump   atomic.Int64
	traces     telemetry.TraceControl

	// ridPrefix + ridSeq mint request IDs for requests arriving without
	// one: "gw-<boot>-<seq>" on numaiogw, "d-<boot>-<seq>" on numaiod.
	ridPrefix string
	ridSeq    atomic.Uint64

	// requests maps endpoint -> per-status counters; the endpoint set is
	// fixed after startup, so the hot path is a read-locked lookup plus a
	// sharded atomic add.
	mu       sync.RWMutex
	requests map[string]*telemetry.IntCounterVec
	latency  *telemetry.BucketHistogram
}

// New builds an Obs from the config.
func New(cfg Config) *Obs {
	log := cfg.Logger
	if log == nil {
		log = cli.Logger(true)
	}
	var flight *telemetry.FlightRecorder
	if cfg.FlightRecorderSize >= 0 {
		size := cfg.FlightRecorderSize
		if size == 0 {
			size = 4096
		}
		flight = telemetry.NewFlightRecorder(size)
	}
	var boot [4]byte
	_, _ = rand.Read(boot[:])
	return &Obs{
		name:       cfg.Name,
		log:        log,
		timeout:    cfg.RequestTimeout,
		clock:      cfg.Clock,
		flight:     flight,
		flightDump: cfg.FlightDump,
		ridPrefix:  strings.TrimPrefix(cfg.Name, "numaio") + "-" + hex.EncodeToString(boot[:]) + "-",
		requests:   make(map[string]*telemetry.IntCounterVec),
		latency:    telemetry.NewBucketHistogram(latencyBuckets),
	}
}

// Traces is the /debug/trace lifecycle; Active() is the tracer request
// work should record onto.
func (o *Obs) Traces() *telemetry.TraceControl { return &o.traces }

// Flight is the flight recorder, nil when disabled (Record no-ops).
func (o *Obs) Flight() *telemetry.FlightRecorder { return o.flight }

// Handle registers h for pattern on mux under the middleware. endpoint is
// the metrics label; it aggregates path parameters, so every
// /v1/models/{fp} request counts under "/v1/models".
func (o *Obs) Handle(mux *http.ServeMux, pattern, endpoint string, h http.HandlerFunc) {
	v1 := strings.HasPrefix(endpoint, "/v1/")
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		}
		rid := r.Header.Get(RequestIDHeader)
		if rid == "" {
			rid = o.ridPrefix + strconv.FormatUint(o.ridSeq.Add(1), 10)
			r.Header.Set(RequestIDHeader, rid)
		}
		w.Header().Set(RequestIDHeader, rid)
		tc, ok := telemetry.ParseTraceContext(r.Header.Get(telemetry.TraceCtxHeader))
		if ok {
			tc = tc.Child()
		} else {
			tc = telemetry.NewTraceContext()
		}
		w.Header().Set(telemetry.TraceCtxHeader, tc.String())
		ctx := telemetry.ContextWithTrace(r.Context(), tc)
		rec := &recorder{ResponseWriter: w, status: http.StatusOK}
		if v1 {
			rec.stages = telemetry.NewStages()
			ctx = telemetry.ContextWithStages(ctx, rec.stages)
		}
		if o.timeout > 0 {
			var cancel func()
			ctx, cancel = resilience.ContextWithTimeout(ctx, o.clock, o.timeout)
			defer cancel()
		}
		r = r.WithContext(ctx)
		// The explicit nil guard keeps the untraced path free of the
		// variadic attr allocations.
		var span *telemetry.Span
		if tr := o.traces.Active(); tr != nil {
			span = tr.StartSpan(endpoint, "http",
				telemetry.String("method", r.Method),
				telemetry.String("trace_id", tc.TraceID),
				telemetry.String("span_id", tc.SpanID))
		}
		h(rec, r)
		if span != nil {
			span.SetAttr(telemetry.Int("status", rec.status))
			span.End()
		}
		elapsed := time.Since(start)
		o.count(endpoint, rec.status)
		if v1 {
			o.latency.ObserveExemplar(elapsed.Seconds(), rid)
			o.flight.Record(telemetry.FlightEvent{
				Time:    start.UnixNano(),
				Dur:     elapsed,
				Status:  rec.status,
				Name:    endpoint,
				Cat:     "http",
				RID:     rid,
				TraceID: tc.TraceID,
			})
			if rec.status >= http.StatusInternalServerError {
				o.Dump(fmt.Sprintf("status %d on %s", rec.status, endpoint))
			}
		}
		if o.log.Enabled(ctx, slog.LevelInfo) {
			attrs := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"duration", elapsed,
				"bytes", rec.bytes,
				"remote", r.RemoteAddr,
				"trace_id", tc.TraceID,
				"request_id", rid,
			}
			o.log.Info("request", rec.stages.AppendLogAttrs(attrs)...)
		}
	})
}

// recorder captures the response status and byte count and, on v1
// endpoints, adds this hop's stage breakdown as its own Server-Timing
// value at WriteHeader time — after any value a proxied replica already
// set, so clients see every hop's attribution.
type recorder struct {
	http.ResponseWriter
	status int
	bytes  int
	stages *telemetry.Stages
}

func (r *recorder) WriteHeader(code int) {
	if st := r.stages.Header(); st != "" {
		r.Header().Add("Server-Timing", st)
	}
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

func (o *Obs) count(endpoint string, status int) {
	o.mu.RLock()
	vec, ok := o.requests[endpoint]
	o.mu.RUnlock()
	if !ok {
		o.mu.Lock()
		if vec, ok = o.requests[endpoint]; !ok {
			vec = telemetry.NewIntCounterVec()
			o.requests[endpoint] = vec
		}
		o.mu.Unlock()
	}
	vec.With(status).Inc()
}

// RequestCount returns the requests served for an endpoint, all statuses.
func (o *Obs) RequestCount(endpoint string) int64 {
	o.mu.RLock()
	vec := o.requests[endpoint]
	o.mu.RUnlock()
	var total int64
	if vec != nil {
		for _, s := range vec.Keys() {
			total += vec.Value(s)
		}
	}
	return total
}

// RequestsSeries is the <name>_requests_total family, by endpoint and
// status, endpoints sorted.
func (o *Obs) RequestsSeries() telemetry.Series {
	return telemetry.Series{
		Name: o.name + "_requests_total", Type: "counter",
		Help: "Requests served, by endpoint and status.",
		Collect: func(w io.Writer) {
			o.mu.RLock()
			vecs := maps.Clone(o.requests)
			o.mu.RUnlock()
			endpoints := make([]string, 0, len(vecs))
			for e := range vecs {
				endpoints = append(endpoints, e)
			}
			sort.Strings(endpoints)
			for _, e := range endpoints {
				for _, s := range vecs[e].Keys() {
					fmt.Fprintf(w, "%s_requests_total{endpoint=%q,status=\"%d\"} %d\n", o.name, e, s, vecs[e].Value(s))
				}
			}
		}}
}

// RegisterDebug adds the debug-surface families to r: <name>_trace_active,
// <name>_trace_events, <name>_flight_events and the <name>_request_seconds
// histogram with request-ID exemplars.
func (o *Obs) RegisterDebug(r *telemetry.Registry) {
	r.IntGaugeFunc(o.name+"_trace_active",
		"Whether a /debug/trace recording is in progress.",
		func() int64 {
			if o.traces.Tracing() {
				return 1
			}
			return 0
		})
	r.IntGaugeFunc(o.name+"_trace_events",
		"Events recorded by the active (or last stopped) trace.",
		func() int64 { return int64(o.traces.Current().Len()) })
	r.IntGaugeFunc(o.name+"_flight_events",
		"Events currently retained by the always-on flight recorder.",
		func() int64 { return int64(o.flight.Len()) })
	r.Register(telemetry.HistogramSeries(o.name+"_request_seconds",
		"v1 request latency, with the last request ID per bucket as an OpenMetrics-style exemplar.",
		o.latency))
}

// Dump writes one flight dump to the configured FlightDump writer, at most
// one per second, so a failure storm cannot flood the log stream.
func (o *Obs) Dump(reason string) {
	if o.flightDump == nil || o.flight == nil {
		return
	}
	now := time.Now().UnixNano()
	last := o.lastDump.Load()
	if now-last < int64(time.Second) || !o.lastDump.CompareAndSwap(last, now) {
		return
	}
	_ = o.writeDump(o.flightDump, reason)
}

func (o *Obs) writeDump(w io.Writer, reason string) error {
	fmt.Fprintf(w, "%s flight recorder dump (%s):\n", o.name, reason)
	err := o.DumpFlightRecorder(w)
	fmt.Fprintln(w)
	return err
}

// DumpFlightRecorder writes the flight recorder's JSON snapshot to w; it
// reports an error when the recorder is disabled.
func (o *Obs) DumpFlightRecorder(w io.Writer) error {
	if o.flight == nil {
		return errors.New(o.name + ": flight recorder disabled")
	}
	return o.flight.WriteJSON(w)
}

// DumpOnQuit writes a flight dump to w on every SIGQUIT, without stopping
// the process, until the returned stop function is called.
func (o *Obs) DumpOnQuit(w io.Writer) (stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGQUIT)
	go func() {
		for range sig {
			if err := o.writeDump(w, "SIGQUIT"); err != nil {
				fmt.Fprintln(w, err)
			}
		}
	}()
	return func() {
		// After Stop no signal is sent on sig, so closing it is safe and
		// ends the goroutine.
		signal.Stop(sig)
		close(sig)
	}
}

// traceState is the body of the /debug/trace/{start,stop} responses;
// stop reports the final event count of the recording it froze.
type traceState struct {
	Tracing bool `json:"tracing"`
	Events  int  `json:"events"`
}

// Mount registers the metrics and debug surface on mux under the
// middleware. GET /metrics renders writeMetrics. POST /debug/trace/start
// begins recording every request span and the work under it onto a fresh
// tracer (discarding one in progress); POST /debug/trace/stop freezes it;
// GET /debug/trace downloads the active or last stopped recording as
// Chrome trace-event JSON, which cmd/numaiotrace stitches across
// processes. GET /debug/flightrecorder dumps the flight recorder.
func (o *Obs) Mount(mux *http.ServeMux, writeMetrics func(io.Writer)) {
	o.Handle(mux, "GET /metrics", "/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w)
	})
	o.Handle(mux, "POST /debug/trace/start", "/debug/trace/start", func(w http.ResponseWriter, r *http.Request) {
		o.traces.Start()
		WriteJSON(w, http.StatusOK, traceState{Tracing: true})
	})
	o.Handle(mux, "POST /debug/trace/stop", "/debug/trace/stop", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, traceState{Events: o.traces.Stop().Len()})
	})
	o.Handle(mux, "GET /debug/trace", "/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		tr := o.traces.Current()
		if tr == nil {
			WriteError(w, http.StatusNotFound, "no trace recorded: POST /debug/trace/start first")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="`+o.name+`-trace.json"`)
		if err := tr.WriteJSON(w); err != nil {
			o.log.Error("writing trace", "error", err)
		}
	})
	o.Handle(mux, "GET /debug/flightrecorder", "/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		if o.flight == nil {
			WriteError(w, http.StatusNotFound, "flight recorder disabled")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := o.flight.WriteJSON(w); err != nil {
			o.log.Error("writing flight recorder", "error", err)
		}
	})
}
