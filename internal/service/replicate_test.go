package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"numaio/internal/core"
	"numaio/internal/service"
)

// putJSON issues a PUT with a JSON body.
func putJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// characterizedModel runs a cheap characterization on ts and returns the
// resulting model JSON and its fingerprint.
func characterizedModel(t *testing.T, ts *httptest.Server) (string, string) {
	t.Helper()
	status, body := postJSON(t, ts.URL+"/v1/characterize", fastBody)
	if status != http.StatusOK {
		t.Fatalf("characterize = %d: %s", status, body)
	}
	var mm core.MachineModel
	if err := json.Unmarshal(body, &mm); err != nil {
		t.Fatal(err)
	}
	// GET the canonical model: the characterize response wraps it with
	// response-only fields (cached, duration) an install would reject.
	status, body = getJSON(t, ts.URL+"/v1/models/"+mm.Fingerprint)
	if status != http.StatusOK {
		t.Fatalf("model get = %d: %s", status, body)
	}
	return string(body), mm.Fingerprint
}

// TestModelInstallPush: PUT /v1/models/{fp} installs a model that is then
// servable by fingerprint without any local characterization.
func TestModelInstallPush(t *testing.T) {
	var srcRuns, dstRuns atomic.Int64
	src := newTestServer(t, &srcRuns)
	dst := newTestServer(t, &dstRuns)
	model, fp := characterizedModel(t, src)

	status, body := putJSON(t, dst.URL+"/v1/models/"+fp, model)
	if status != http.StatusOK {
		t.Fatalf("install = %d: %s", status, body)
	}
	var out struct {
		Installed bool `json:"installed"`
	}
	if err := json.Unmarshal(body, &out); err != nil || !out.Installed {
		t.Fatalf("install response %s (err %v)", body, err)
	}

	// The installed model serves fingerprint-addressed reads and predicts
	// with zero characterizer runs on the destination.
	if status, _ := getJSON(t, dst.URL+"/v1/models/"+fp); status != http.StatusOK {
		t.Errorf("GET installed model = %d", status)
	}
	byFP := fmt.Sprintf(`{"fingerprint": %q, "target": 0, "mode": "write", "mix": {"0": 1}}`, fp)
	if status, body := postJSON(t, dst.URL+"/v1/predict", byFP); status != http.StatusOK {
		t.Errorf("predict on installed model = %d: %s", status, body)
	}
	if dstRuns.Load() != 0 {
		t.Errorf("destination ran the characterizer %d times for a replicated model", dstRuns.Load())
	}

	// Validation: mismatched fingerprint and empty models are rejected.
	if status, _ := putJSON(t, dst.URL+"/v1/models/other-fp", model); status != http.StatusBadRequest {
		t.Errorf("mismatched fingerprint install = %d, want 400", status)
	}
	if status, _ := putJSON(t, dst.URL+"/v1/models/empty-fp", `{"models": []}`); status != http.StatusBadRequest {
		t.Errorf("empty model install = %d, want 400", status)
	}
}

// TestModelPull: POST /v1/models/pull fetches the model from the source
// replica, is idempotent, and surfaces unreachable sources as 502.
func TestModelPull(t *testing.T) {
	var srcRuns, dstRuns atomic.Int64
	src := newTestServer(t, &srcRuns)
	dst := newTestServer(t, &dstRuns)
	_, fp := characterizedModel(t, src)

	pull := fmt.Sprintf(`{"fingerprint": %q, "source": %q}`, fp, src.URL)
	status, body := postJSON(t, dst.URL+"/v1/models/pull", pull)
	if status != http.StatusOK {
		t.Fatalf("pull = %d: %s", status, body)
	}
	var out struct {
		Installed bool `json:"installed"`
	}
	if err := json.Unmarshal(body, &out); err != nil || !out.Installed {
		t.Fatalf("pull response %s (err %v)", body, err)
	}
	if status, _ := getJSON(t, dst.URL+"/v1/models/"+fp); status != http.StatusOK {
		t.Errorf("GET pulled model = %d", status)
	}

	// Second pull is an installed=false no-op, not a refetch.
	status, body = postJSON(t, dst.URL+"/v1/models/pull", pull)
	if status != http.StatusOK {
		t.Fatalf("repeat pull = %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Installed {
		t.Errorf("repeat pull response %s (err %v), want installed=false", body, err)
	}
	if dstRuns.Load() != 0 {
		t.Errorf("destination ran the characterizer %d times", dstRuns.Load())
	}

	// Bad requests and dead sources.
	if status, _ := postJSON(t, dst.URL+"/v1/models/pull", `{"fingerprint": ""}`); status != http.StatusBadRequest {
		t.Errorf("empty pull = %d, want 400", status)
	}
	dead := httptest.NewServer(http.HandlerFunc(nil))
	dead.Close()
	deadPull := fmt.Sprintf(`{"fingerprint": "fp-unknown", "source": %q}`, dead.URL)
	if status, _ := postJSON(t, dst.URL+"/v1/models/pull", deadPull); status != http.StatusBadGateway {
		t.Errorf("pull from dead source = %d, want 502", status)
	}
	missing := fmt.Sprintf(`{"fingerprint": "fp-unknown", "source": %q}`, src.URL)
	if status, _ := postJSON(t, dst.URL+"/v1/models/pull", missing); status != http.StatusBadGateway {
		t.Errorf("pull of model the source lacks = %d, want 502", status)
	}
}

// TestRequestIDLogging: an X-Request-Id header shows up in the replica's
// structured request log and is echoed on the response; a request without
// one gets a minted ID, echoed and logged the same way.
func TestRequestIDLogging(t *testing.T) {
	var buf lockedBuffer
	svc := service.New(service.Config{
		Logger: slog.New(slog.NewTextHandler(&buf, nil)),
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "gw-cafe-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "gw-cafe-7" {
		t.Errorf("response request ID = %q, want gw-cafe-7", got)
	}
	if logged := buf.String(); !strings.Contains(logged, "request_id=gw-cafe-7") {
		t.Errorf("log missing request_id:\n%s", logged)
	}

	// Without the header numaiod mints an ID of its own.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get("X-Request-Id")
	if !strings.HasPrefix(minted, "d-") {
		t.Fatalf("minted request ID = %q, want a d- prefix", minted)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, "request_id="+minted) {
		t.Errorf("bare request logged without its minted ID %s: %s", minted, last)
	}
}
