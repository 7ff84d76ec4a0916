package httpobs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"numaio/internal/core"
	"numaio/internal/fleet"
	"numaio/internal/httpobs"
	"numaio/internal/service"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
)

const (
	predictBody = `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
	                "target": 0, "mode": "write", "mix": {"0": 0.5, "2": 0.5}}`
	// failBody asks for a characterization the stub characterizer fails,
	// so the replica answers 500 (which the gateway passes through).
	failBody = `{"machine": "intel-4s4n", "config": {"repeats": 7, "sigma": -1}}`
)

// daemon is one handler under test: numaiod served directly, or numaiogw
// in front of one numaiod replica.
type daemon struct {
	name     string
	ridStart string // prefix of the request IDs it mints
	handler  http.Handler
	obs      *httpobs.Obs
	// backend is the Obs of the numaiod doing the v1 work: the daemon's
	// own for numaiod, the replica's behind numaiogw.
	backend *httpobs.Obs
	metrics func(io.Writer)
	dumps   *lockedBuffer
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func newReplica(flightSize int, dumps io.Writer) *service.Server {
	return service.New(service.Config{
		Workers:            1,
		FlightRecorderSize: flightSize,
		FlightDump:         dumps,
		Characterize: func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
			if cfg.Repeats == 7 {
				return nil, errors.New("induced characterization failure")
			}
			return service.DefaultCharacterize(ctx, m, cfg)
		},
	})
}

// boot builds both daemons with the given flight recorder size.
func boot(t *testing.T, flightSize int) []daemon {
	t.Helper()
	direct := daemon{name: "numaiod", ridStart: "d-", dumps: &lockedBuffer{}}
	svc := newReplica(flightSize, direct.dumps)
	direct.handler, direct.obs, direct.backend, direct.metrics = svc.Handler(), svc.Obs(), svc.Obs(), svc.WriteMetrics

	gateway := daemon{name: "numaiogw", ridStart: "gw-", dumps: &lockedBuffer{}}
	replica := newReplica(0, nil)
	ts := httptest.NewServer(replica.Handler())
	t.Cleanup(ts.Close)
	gw, err := fleet.NewGateway(fleet.GatewayConfig{
		Fleet:              &fleet.Config{Replicas: []fleet.Replica{{Name: "r0", URL: ts.URL}}},
		FlightRecorderSize: flightSize,
		FlightDump:         gateway.dumps,
	})
	if err != nil {
		t.Fatal(err)
	}
	gateway.handler, gateway.obs, gateway.backend, gateway.metrics = gw.Handler(), gw.Obs(), replica.Obs(), gw.WriteMetrics
	return []daemon{direct, gateway}
}

func (d daemon) do(t *testing.T, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	d.handler.ServeHTTP(rec, req)
	return rec
}

func (d daemon) metricsText() string {
	var buf bytes.Buffer
	d.metrics(&buf)
	return buf.String()
}

// flightEvents returns the parsed events of a flight recorder dump.
func flightEvents(t *testing.T, o *httpobs.Obs) []telemetry.FlightEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := o.DumpFlightRecorder(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Events []struct {
			Name      string `json:"name"`
			Cat       string `json:"cat"`
			Status    int    `json:"status"`
			RequestID string `json:"request_id"`
			TraceID   string `json:"trace_id"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("flight dump is not JSON: %v\n%s", err, buf.Bytes())
	}
	var out []telemetry.FlightEvent
	for _, e := range dump.Events {
		out = append(out, telemetry.FlightEvent{Name: e.Name, Cat: e.Cat, Status: e.Status, RID: e.RequestID, TraceID: e.TraceID})
	}
	return out
}

// TestConformance runs one table of middleware and debug-surface
// behaviours against both daemons' handlers, so numaiod and numaiogw
// cannot drift apart again.
func TestConformance(t *testing.T) {
	cases := []struct {
		name  string
		check func(t *testing.T, d daemon)
	}{
		{"request ID echoed or minted", func(t *testing.T, d daemon) {
			rec := d.do(t, http.MethodPost, "/v1/predict", predictBody, map[string]string{httpobs.RequestIDHeader: "conf-rid-1"})
			if got := rec.Header().Get(httpobs.RequestIDHeader); got != "conf-rid-1" {
				t.Errorf("echoed request ID = %q", got)
			}
			rec = d.do(t, http.MethodPost, "/v1/predict", predictBody, nil)
			minted := rec.Header().Get(httpobs.RequestIDHeader)
			if !strings.HasPrefix(minted, d.ridStart) {
				t.Fatalf("minted request ID = %q, want prefix %q", minted, d.ridStart)
			}
			// The numaiod doing the work saw the same ID.
			found := false
			for _, e := range flightEvents(t, d.backend) {
				found = found || e.RID == minted
			}
			if !found {
				t.Errorf("serving numaiod has no flight event for %s", minted)
			}
		}},
		{"trace context child span", func(t *testing.T, d daemon) {
			parent := telemetry.NewTraceContext()
			rec := d.do(t, http.MethodPost, "/v1/predict", predictBody, map[string]string{telemetry.TraceCtxHeader: parent.String()})
			child, ok := telemetry.ParseTraceContext(rec.Header().Get(telemetry.TraceCtxHeader))
			if !ok || child.TraceID != parent.TraceID || child.SpanID == parent.SpanID {
				t.Errorf("X-Trace-Ctx %q for parent %q: want same trace ID, new span ID",
					rec.Header().Get(telemetry.TraceCtxHeader), parent)
			}
			rec = d.do(t, http.MethodGet, "/healthz", "", nil)
			if fresh, ok := telemetry.ParseTraceContext(rec.Header().Get(telemetry.TraceCtxHeader)); !ok || fresh.TraceID == parent.TraceID {
				t.Errorf("request without a context got X-Trace-Ctx %q", rec.Header().Get(telemetry.TraceCtxHeader))
			}
		}},
		{"Server-Timing stacks per hop", func(t *testing.T, d daemon) {
			rec := d.do(t, http.MethodPost, "/v1/predict", predictBody, nil)
			values := rec.Header().Values("Server-Timing")
			wantHops, wantStages := 1, []string{"cache;dur=", "solve;dur=", "encode;dur="}
			if d.name == "numaiogw" {
				wantHops, wantStages = 2, append(wantStages, "route;dur=", "forward;dur=")
			}
			if len(values) != wantHops {
				t.Errorf("Server-Timing values %q, want one per hop (%d)", values, wantHops)
			}
			joined := strings.Join(values, ", ")
			for _, st := range wantStages {
				if !strings.Contains(joined, st) {
					t.Errorf("Server-Timing %q lacks %q", joined, st)
				}
			}
			if rec := d.do(t, http.MethodGet, "/healthz", "", nil); rec.Header().Get("Server-Timing") != "" {
				t.Error("non-v1 endpoint carries Server-Timing")
			}
		}},
		{"flight event per v1 request", func(t *testing.T, d daemon) {
			for i := 0; i < 3; i++ {
				d.do(t, http.MethodPost, "/v1/predict", predictBody, map[string]string{httpobs.RequestIDHeader: "fl-" + strconv.Itoa(i)})
				d.do(t, http.MethodGet, "/healthz", "", nil)
			}
			var v1, other int
			for _, e := range flightEvents(t, d.obs) {
				switch {
				case e.Name == "/v1/predict" && e.Cat == "http" && e.Status == http.StatusOK && strings.HasPrefix(e.RID, "fl-"):
					v1++
				case e.Name == "/healthz":
					other++
				}
			}
			if v1 != 3 || other != 0 {
				t.Errorf("flight events: %d predict (want 3), %d healthz (want 0)", v1, other)
			}
		}},
		{"5xx dumps at most once per second", func(t *testing.T, d daemon) {
			for i := 0; i < 3; i++ {
				if rec := d.do(t, http.MethodPost, "/v1/characterize", failBody, nil); rec.Code != http.StatusInternalServerError {
					t.Fatalf("failing characterize = %d, want 500", rec.Code)
				}
			}
			banner := d.name + " flight recorder dump (status 500 on /v1/characterize):"
			if got := strings.Count(d.dumps.String(), "flight recorder dump"); got != 1 || !strings.Contains(d.dumps.String(), banner) {
				t.Errorf("%d dumps after three quick 500s, want one headed %q:\n%s", got, banner, d.dumps.String())
			}
		}},
		{"debug trace lifecycle", func(t *testing.T, d daemon) {
			if rec := d.do(t, http.MethodGet, "/debug/trace", "", nil); rec.Code != http.StatusNotFound {
				t.Fatalf("download before start = %d, want 404", rec.Code)
			}
			if rec := d.do(t, http.MethodPost, "/debug/trace/start", "", nil); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"tracing": true`) {
				t.Fatalf("start = %d %s", rec.Code, rec.Body)
			}
			if !strings.Contains(d.metricsText(), d.name+"_trace_active 1") {
				t.Errorf("%s_trace_active is not 1 while tracing", d.name)
			}
			pred := d.do(t, http.MethodPost, "/v1/predict", predictBody, nil)
			tc, _ := telemetry.ParseTraceContext(pred.Header().Get(telemetry.TraceCtxHeader))
			stop := d.do(t, http.MethodPost, "/debug/trace/stop", "", nil)
			var state struct {
				Tracing bool `json:"tracing"`
				Events  int  `json:"events"`
			}
			if err := json.Unmarshal(stop.Body.Bytes(), &state); err != nil || state.Tracing || state.Events == 0 {
				t.Fatalf("stop = %s (err %v), want tracing false and events > 0", stop.Body, err)
			}
			dl := d.do(t, http.MethodGet, "/debug/trace", "", nil)
			if dl.Code != http.StatusOK || !strings.Contains(dl.Body.String(), `"/v1/predict"`) || !strings.Contains(dl.Body.String(), tc.TraceID) {
				t.Errorf("download = %d, want the predict span with trace ID %s", dl.Code, tc.TraceID)
			}
			if cd := dl.Header().Get("Content-Disposition"); !strings.Contains(cd, d.name+"-trace.json") {
				t.Errorf("Content-Disposition = %q", cd)
			}
		}},
		{"metrics render with exemplars", func(t *testing.T, d daemon) {
			d.do(t, http.MethodPost, "/v1/predict", predictBody, map[string]string{httpobs.RequestIDHeader: "conf-exemplar"})
			d.do(t, http.MethodPost, "/v1/predict", `{`, nil)
			text := d.metricsText()
			for _, want := range []string{
				"# TYPE " + d.name + "_requests_total counter",
				d.name + `_requests_total{endpoint="/v1/predict",status="200"} 1`,
				d.name + `_requests_total{endpoint="/v1/predict",status="400"} 1`,
				"# TYPE " + d.name + "_request_seconds histogram",
				d.name + "_request_seconds_count 2",
				`# {request_id="conf-exemplar"}`,
				"# TYPE " + d.name + "_trace_events gauge",
				"# TYPE " + d.name + "_flight_events gauge",
			} {
				if !strings.Contains(text, want) {
					t.Errorf("metrics missing %q", want)
				}
			}
			if text != d.metricsText() {
				t.Error("two renders of an idle daemon differ")
			}
		}},
		{"oversized body is 413", func(t *testing.T, d daemon) {
			huge := `{"machine": "` + strings.Repeat("x", httpobs.MaxBodyBytes) + `"}`
			paths := []string{"/v1/predict", "/v1/characterize"}
			if d.name == "numaiogw" {
				paths = append(paths, "/v1/fleet/place")
			}
			for _, p := range paths {
				rec := d.do(t, http.MethodPost, p, huge, nil)
				if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), strconv.Itoa(httpobs.MaxBodyBytes)) {
					t.Errorf("oversized %s = %d %s, want 413 naming the cap", p, rec.Code, rec.Body)
				}
			}
		}},
	}
	for _, c := range cases {
		for _, d := range boot(t, 0) {
			t.Run(c.name+"/"+d.name, func(t *testing.T) { c.check(t, d) })
		}
	}

	for _, d := range boot(t, -1) {
		t.Run("flight recorder disabled/"+d.name, func(t *testing.T) {
			if rec := d.do(t, http.MethodGet, "/debug/flightrecorder", "", nil); rec.Code != http.StatusNotFound {
				t.Errorf("disabled flightrecorder = %d, want 404", rec.Code)
			}
			if err := d.obs.DumpFlightRecorder(io.Discard); err == nil {
				t.Error("DumpFlightRecorder succeeded with the recorder disabled")
			}
		})
	}
}

// TestRequestCountsConcurrent hammers the per-endpoint request counters
// from many goroutines; run under -race, nothing may be lost.
func TestRequestCountsConcurrent(t *testing.T) {
	o := httpobs.New(httpobs.Config{Name: "test"})
	mux := http.NewServeMux()
	o.Handle(mux, "GET /a", "/a", func(w http.ResponseWriter, r *http.Request) {})
	o.Handle(mux, "GET /b", "/b", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTeapot) })
	const workers, per = 16, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for _, p := range []string{"/a", "/b"} {
					mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, p, nil))
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range []string{"/a", "/b"} {
		if got := o.RequestCount(p); got != workers*per {
			t.Errorf("%s requests = %d, want %d", p, got, workers*per)
		}
	}
	var buf bytes.Buffer
	o.RequestsSeries().Render(&buf)
	if !strings.Contains(buf.String(), `test_requests_total{endpoint="/b",status="418"} 1600`) {
		t.Errorf("requests series:\n%s", buf.String())
	}
}

// TestWriteJSONBytes pins the shared writer to json.MarshalIndent's bytes
// plus a trailing newline, HTML escaping included.
func TestWriteJSONBytes(t *testing.T) {
	v := map[string]any{"error": "<a & b>", "n": 1.5, "list": []int{1, 2}}
	want, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	httpobs.WriteJSON(rec, http.StatusTeapot, v)
	if rec.Code != http.StatusTeapot || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if got := rec.Body.String(); got != string(want)+"\n" {
		t.Errorf("body %q, want %q", got, string(want)+"\n")
	}
}
