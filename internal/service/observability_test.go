package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"numaio/internal/core"
	"numaio/internal/service"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
)

func doRequest(t *testing.T, method, url, body string, hdr map[string]string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
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
	return resp
}

// TestServerTimingStages checks v1 responses carry the per-request stage
// breakdown: a characterize-on-miss predict reports solve time, and a
// response-cache hit reports only the cache lookup.
func TestServerTimingStages(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	resp := doRequest(t, http.MethodPost, ts.URL+"/v1/predict", predictBody, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	st := resp.Header.Get("Server-Timing")
	for _, stage := range []string{"cache;dur=", "queue;dur=", "solve;dur=", "encode;dur="} {
		if !strings.Contains(st, stage) {
			t.Errorf("miss Server-Timing %q lacks %q", st, stage)
		}
	}

	// Same request again: served from the response cache, so no queue or
	// solve stage — just the lookup.
	resp = doRequest(t, http.MethodPost, ts.URL+"/v1/predict", predictBody, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	st = resp.Header.Get("Server-Timing")
	if !strings.Contains(st, "cache;dur=") || strings.Contains(st, "solve;dur=") {
		t.Errorf("hit Server-Timing = %q, want cache only", st)
	}
	if runs.Load() != 1 {
		t.Errorf("characterizer ran %d times, want 1", runs.Load())
	}

	// Non-v1 endpoints carry no stage breakdown.
	resp = doRequest(t, http.MethodGet, ts.URL+"/healthz", "", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Server-Timing"); got != "" {
		t.Errorf("healthz Server-Timing = %q, want none", got)
	}
}

// TestFlightRecorderEndpoint drives a v1 request and checks the always-on
// flight recorder captured it — name, request ID and the trace ID echoed on
// the response — via /debug/flightrecorder.
func TestFlightRecorderEndpoint(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	resp := doRequest(t, http.MethodPost, ts.URL+"/v1/predict", predictBody, map[string]string{
		"X-Request-Id": "flight-rid-7",
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tc, ok := telemetry.ParseTraceContext(resp.Header.Get(telemetry.TraceCtxHeader))
	if !ok {
		t.Fatal("no trace context on response")
	}

	status, body := getJSON(t, ts.URL+"/debug/flightrecorder")
	if status != http.StatusOK {
		t.Fatalf("flightrecorder = %d", status)
	}
	var dump struct {
		Dropped uint64 `json:"dropped"`
		Events  []struct {
			Name      string `json:"name"`
			Cat       string `json:"cat"`
			RequestID string `json:"request_id"`
			TraceID   string `json:"trace_id"`
			Status    int    `json:"status"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v\n%s", err, body)
	}
	found := false
	for _, e := range dump.Events {
		if e.Name == "/v1/predict" && e.RequestID == "flight-rid-7" {
			found = true
			if e.TraceID != tc.TraceID {
				t.Errorf("flight event trace ID %s, want %s", e.TraceID, tc.TraceID)
			}
			if e.Cat != "http" || e.Status != http.StatusOK {
				t.Errorf("flight event cat=%q status=%d", e.Cat, e.Status)
			}
		}
	}
	if !found {
		t.Errorf("no flight event for the predict request:\n%s", body)
	}
}

// TestFlightDumpOnFailure checks a 5xx response triggers an automatic
// flight-recorder dump to the configured writer.
func TestFlightDumpOnFailure(t *testing.T) {
	var dumpBuf bytes.Buffer
	svc := service.New(service.Config{
		Workers: 1,
		Characterize: func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
			return nil, errors.New("measurement rig on fire")
		},
		FlightDump: &dumpBuf,
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	status, _ := postJSON(t, ts.URL+"/v1/characterize", fastBody)
	if status != http.StatusInternalServerError {
		t.Fatalf("characterize = %d, want 500", status)
	}
	out := dumpBuf.String()
	if !strings.Contains(out, "flight recorder dump") || !strings.Contains(out, `"/v1/characterize"`) {
		t.Errorf("no automatic flight dump after a 500; got:\n%s", out)
	}
}

// TestModelPullPropagatesTrace checks the outbound hop of a model pull
// carries the pulling request's trace context and request ID.
func TestModelPullPropagatesTrace(t *testing.T) {
	var gotTrace, gotRID atomic.Value
	source := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTrace.Store(r.Header.Get(telemetry.TraceCtxHeader))
		gotRID.Store(r.Header.Get("X-Request-Id"))
		http.NotFound(w, r) // pull fails; only the propagation matters here
	}))
	t.Cleanup(source.Close)

	var runs atomic.Int64
	ts := newTestServer(t, &runs)
	parent := telemetry.NewTraceContext()
	resp := doRequest(t, http.MethodPost, ts.URL+"/v1/models/pull",
		`{"fingerprint": "deadbeef", "source": "`+source.URL+`"}`,
		map[string]string{
			telemetry.TraceCtxHeader: parent.String(),
			"X-Request-Id":           "pull-rid-3",
		})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	hop, ok := telemetry.ParseTraceContext(gotTrace.Load().(string))
	if !ok {
		t.Fatalf("pull hop X-Trace-Ctx %q does not parse", gotTrace.Load())
	}
	if hop.TraceID != parent.TraceID {
		t.Errorf("pull hop trace ID %s, want %s", hop.TraceID, parent.TraceID)
	}
	if gotRID.Load().(string) != "pull-rid-3" {
		t.Errorf("pull hop X-Request-Id = %q", gotRID.Load())
	}
}

// TestMetricsExposition pins the /metrics exposition contract: every family
// has HELP and TYPE lines, the request-latency histogram renders with its
// exemplar suffix, and two back-to-back renders of a quiesced server are
// byte-identical (scrape determinism). The renders go through WriteMetrics
// rather than HTTP so the scrape itself does not perturb the counters.
func TestMetricsExposition(t *testing.T) {
	svc := service.New(service.Config{
		Workers: 2,
		Characterize: func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
			return service.DefaultCharacterize(ctx, m, cfg)
		},
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	resp := doRequest(t, http.MethodPost, ts.URL+"/v1/predict", predictBody, map[string]string{
		"X-Request-Id": "exemplar-rid-9",
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var buf bytes.Buffer
	svc.WriteMetrics(&buf)
	body := buf.Bytes()
	text := string(body)
	for _, want := range []string{
		"# HELP numaiod_request_seconds ",
		"# TYPE numaiod_request_seconds histogram",
		"numaiod_request_seconds_bucket{le=\"+Inf\"} 1",
		"numaiod_request_seconds_count 1",
		`# {request_id="exemplar-rid-9"}`,
		"# HELP numaiod_flight_events ",
		"# TYPE numaiod_flight_events gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Every sample line belongs to a family that declared HELP and TYPE.
	declared := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			declared[strings.Fields(rest)[0]] = true
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suffix); ok {
				base = cut
			}
		}
		if !declared[name] && !declared[base] {
			t.Errorf("sample %q has no # TYPE declaration", name)
		}
	}

	// Quiesced server: repeated renders are byte-identical.
	var again bytes.Buffer
	svc.WriteMetrics(&again)
	if !bytes.Equal(body, again.Bytes()) {
		t.Error("two back-to-back metrics renders differ on an idle server")
	}
}
