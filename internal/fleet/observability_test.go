package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"numaio/internal/httpobs"
	"numaio/internal/telemetry"
)

// TestGatewayTracePropagation drives a predict through the gateway with a
// client-supplied trace context and checks the whole chain shares one
// trace ID: the gateway's response header, the replica's response header
// (via the gateway's own child context on the forward hop), and both
// flight recorders.
func TestGatewayTracePropagation(t *testing.T) {
	tf := newTestFleet(t, 3, nil)
	parent := telemetry.NewTraceContext()
	hdr := http.Header{}
	hdr.Set(telemetry.TraceCtxHeader, parent.String())
	hdr.Set(httpobs.RequestIDHeader, "trace-rid-1")

	rec := tf.do(t, http.MethodPost, "/v1/predict", predictBody, hdr)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", rec.Code, rec.Body)
	}
	gwCtx, ok := telemetry.ParseTraceContext(rec.Header().Get(telemetry.TraceCtxHeader))
	if !ok {
		t.Fatalf("gateway X-Trace-Ctx %q does not parse", rec.Header().Get(telemetry.TraceCtxHeader))
	}
	if gwCtx.TraceID != parent.TraceID {
		t.Errorf("gateway trace ID %s, want the client's %s", gwCtx.TraceID, parent.TraceID)
	}
	if gwCtx.SpanID == parent.SpanID {
		t.Error("gateway kept the client span ID instead of minting a child")
	}

	// Both the gateway's and the serving replica's flight recorders hold an
	// event with the shared trace ID.
	gwDump := tf.do(t, http.MethodGet, "/debug/flightrecorder", "", nil)
	if gwDump.Code != http.StatusOK {
		t.Fatalf("gateway flightrecorder = %d", gwDump.Code)
	}
	if !strings.Contains(gwDump.Body.String(), parent.TraceID) {
		t.Errorf("gateway flight recorder lacks trace ID %s:\n%s", parent.TraceID, gwDump.Body)
	}
	owner := tf.gw.Ring().Owner(fingerprintOf(t, "intel-4s4n"))
	var replicaDump bytes.Buffer
	if err := tf.services[owner].Obs().DumpFlightRecorder(&replicaDump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(replicaDump.String(), parent.TraceID) {
		t.Errorf("owner replica's flight recorder lacks trace ID %s:\n%s", parent.TraceID, replicaDump.String())
	}
	if !strings.Contains(replicaDump.String(), "trace-rid-1") {
		t.Error("owner replica's flight recorder lacks the forwarded request ID")
	}
}

// TestGatewayFailoverFlightEvents kills the owner and checks the
// degradation leaves resilience breadcrumbs in the gateway's flight
// recorder: a failover event per failed forward attempt and, once the
// failures reach the breaker threshold (default 3), a breaker_open event.
func TestGatewayFailoverFlightEvents(t *testing.T) {
	tf := newTestFleet(t, 3, nil)
	owner := tf.gw.Ring().Owner(fingerprintOf(t, "intel-4s4n"))
	tf.servers[owner].Close()

	for i := 0; i < 3; i++ {
		rec := tf.do(t, http.MethodPost, "/v1/predict", predictBody, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("predict %d with dead owner = %d: %s", i, rec.Code, rec.Body)
		}
	}
	dump := tf.do(t, http.MethodGet, "/debug/flightrecorder", "", nil)
	var parsed struct {
		Events []struct {
			Name   string `json:"name"`
			Cat    string `json:"cat"`
			Detail string `json:"detail"`
		} `json:"events"`
	}
	if err := json.Unmarshal(dump.Body.Bytes(), &parsed); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	sawFailover, sawBreakerOpen := false, false
	for _, e := range parsed.Events {
		if e.Cat != "resilience" || !strings.Contains(e.Detail, owner) {
			continue
		}
		switch e.Name {
		case "failover":
			sawFailover = true
		case "breaker_open":
			sawBreakerOpen = true
		}
	}
	if !sawFailover {
		t.Errorf("no failover event naming replica %s in the flight recorder:\n%s", owner, dump.Body)
	}
	if !sawBreakerOpen {
		t.Errorf("no breaker_open event naming replica %s in the flight recorder:\n%s", owner, dump.Body)
	}
}

// TestGatewayTraceLifecycle drives the gateway's /debug/trace endpoints and
// checks the recording contains the proxied request span tagged with the
// trace ID.
func TestGatewayTraceLifecycle(t *testing.T) {
	tf := newTestFleet(t, 2, nil)
	if rec := tf.do(t, http.MethodGet, "/debug/trace", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("download with no trace = %d, want 404", rec.Code)
	}
	if rec := tf.do(t, http.MethodPost, "/debug/trace/start", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("start = %d", rec.Code)
	}
	pred := tf.do(t, http.MethodPost, "/v1/predict", predictBody, nil)
	tc, _ := telemetry.ParseTraceContext(pred.Header().Get(telemetry.TraceCtxHeader))
	if rec := tf.do(t, http.MethodPost, "/debug/trace/stop", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("stop = %d", rec.Code)
	}
	dl := tf.do(t, http.MethodGet, "/debug/trace", "", nil)
	if dl.Code != http.StatusOK {
		t.Fatalf("download = %d", dl.Code)
	}
	body := dl.Body.String()
	if !strings.Contains(body, `"/v1/predict"`) || !strings.Contains(body, tc.TraceID) {
		t.Errorf("gateway trace lacks the predict span or its trace ID:\n%s", body)
	}
}

// TestGatewayMetricsExposition checks the new gateway families render with
// HELP/TYPE, the latency histogram carries exemplars, and back-to-back
// renders are byte-identical on an idle gateway.
func TestGatewayMetricsExposition(t *testing.T) {
	tf := newTestFleet(t, 2, nil)
	hdr := http.Header{}
	hdr.Set(httpobs.RequestIDHeader, "gw-exemplar-5")
	if rec := tf.do(t, http.MethodPost, "/v1/predict", predictBody, hdr); rec.Code != http.StatusOK {
		t.Fatalf("predict = %d", rec.Code)
	}

	var buf bytes.Buffer
	tf.gw.WriteMetrics(&buf)
	text := buf.String()
	for _, want := range []string{
		"# TYPE numaiogw_request_seconds histogram",
		"numaiogw_request_seconds_count 1",
		`# {request_id="gw-exemplar-5"}`,
		"# TYPE numaiogw_trace_active gauge",
		"numaiogw_flight_events",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("gateway metrics missing %q", want)
		}
	}
	var again bytes.Buffer
	tf.gw.WriteMetrics(&again)
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two back-to-back gateway metrics renders differ while idle")
	}
}
