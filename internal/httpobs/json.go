package httpobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// jsonEncoder is a pooled buffer+encoder pair, so a response does not
// build a json.Encoder and grow a fresh buffer. Two-space indent plus the
// encoder's trailing newline is byte-for-byte json.MarshalIndent + "\n".
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &jsonEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// encode renders v into a pooled encoder, charging the time to w's
// "encode" stage. The caller returns e to encPool.
func encode(w http.ResponseWriter, v any) (*jsonEncoder, error) {
	start := time.Now()
	e := encPool.Get().(*jsonEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		encPool.Put(e)
		return nil, err
	}
	if rec, ok := w.(*recorder); ok {
		rec.stages.Add("encode", time.Since(start))
	}
	return e, nil
}

// EncodeJSON renders v as WriteJSON does into a freshly owned slice — for
// bodies a caller keeps (response caches) — charging w's "encode" stage.
func EncodeJSON(w http.ResponseWriter, v any) ([]byte, error) {
	e, err := encode(w, v)
	if err != nil {
		return nil, err
	}
	body := bytes.Clone(e.buf.Bytes())
	encPool.Put(e)
	return body, nil
}

// WriteJSON encodes v as the response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	e, err := encode(w, v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	WriteJSONBytes(w, status, e.buf.Bytes())
	encPool.Put(e)
}

// WriteJSONBytes serves an already rendered JSON body.
func WriteJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// WriteError answers with status and {"error": message}.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// WriteBodyError answers a failed body read: 413 naming the cap when the
// body overran MaxBodyBytes, else 400 with what went wrong.
func WriteBodyError(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte cap", tooBig.Limit)
		return
	}
	WriteError(w, http.StatusBadRequest, "%s: %v", what, err)
}

// DecodeJSON strictly decodes the request body into v (unknown fields are
// errors). On failure it writes the error response and returns false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteBodyError(w, "invalid JSON body", err)
		return false
	}
	return true
}
