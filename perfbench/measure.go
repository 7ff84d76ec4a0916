package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"numaio/internal/loadgen"
)

// clients is the closed-loop concurrency: one client, waiting for its
// reply before sending again, so one request is in flight. With two on
// the 2-core reference host, the client, the daemons and their worker
// goroutines contended for both cores, and the timings, gateway-hot's
// p99 most, moved with how much CPU the host took away (README.md).
const clients = 1

// latencies is a log-linear histogram of nanosecond values with 1/256
// relative resolution. It is pointer-free, ~26 KiB and sized once, so the
// benchmark's own memory neither grows with throughput nor adds GC work.
type latencies struct {
	counts []uint32
	n      int64
}

const (
	latSubBits = 8
	latSub     = 1 << latSubBits
	latOctaves = 24 // values up to 2^(latSubBits+1+latOctaves) ns, ~8.6 s
)

func newLatencies() *latencies {
	return &latencies{counts: make([]uint32, (latOctaves+2)*latSub)}
}

func (h *latencies) record(d time.Duration) {
	v := uint64(max(int64(d), 0))
	i := int(v)
	if v >= latSub {
		exp := bits.Len64(v) - latSubBits - 1
		i = min(exp*latSub+int(v>>exp), len(h.counts)-1)
	}
	h.counts[i]++
	h.n++
}

// add merges o's counts into h.
func (h *latencies) add(o *latencies) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in microseconds, read at the middle of
// its bucket.
func (h *latencies) quantile(q float64) float64 {
	rank := int64(q*float64(h.n-1)) + 1
	var seen int64
	for i, c := range h.counts {
		if seen += int64(c); seen < rank {
			continue
		}
		if i < latSub {
			return float64(i) / 1e3
		}
		exp := i/latSub - 1
		lo := uint64(i-exp*latSub) << exp
		return (float64(lo) + float64(uint64(1)<<exp)/2) / 1e3
	}
	return 0
}

// phase collects one stretch of load: outcomes, deferred checks, the
// latencies and CPU time of each sub-window and, when traced, the summed
// Server-Timing stages.
type phase struct {
	mu       sync.Mutex
	subLen   time.Duration
	subs     []subWindow
	ops      int64
	failed   int64
	firstErr error
	pending  []*pendingCheck
	stages   map[string]float64 // µs summed over ops; nil unless traced
}

// subWindow is one slice of a phase, cut by completion time. It runs, in
// wall, CPU and steal time, from its own start marks to the next
// sub-window's (for the last, to the phase's end).
type subWindow struct {
	lat        *latencies
	ops        int64
	wallStart  time.Time
	cpuStart   time.Duration
	stealStart int64
}

// newPhase prepares a phase of length d cut into n sub-windows.
func newPhase(d time.Duration, n int, traced bool) *phase {
	ph := &phase{subLen: d / time.Duration(n), subs: make([]subWindow, n)}
	for k := range ph.subs {
		ph.subs[k].lat = newLatencies()
	}
	if traced {
		ph.stages = make(map[string]float64)
	}
	return ph
}

// begin starts the phase's clock.
func (ph *phase) begin() { ph.subs[0].mark() }

func (sw *subWindow) mark() {
	sw.wallStart, sw.cpuStart, sw.stealStart = time.Now(), cpuTime(), stealTicks()
}

// all is the phase's latency histogram when it has one sub-window.
func (ph *phase) all() *latencies { return ph.subs[0].lat }

func (ph *phase) record(d time.Duration, p *pendingCheck, timing []string, err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	k := min(int(time.Since(ph.subs[0].wallStart)/ph.subLen), len(ph.subs)-1)
	for j := 1; j <= k; j++ {
		if ph.subs[j].wallStart.IsZero() {
			ph.subs[j].mark()
		}
	}
	ph.ops++
	ph.subs[k].ops++
	if err != nil {
		ph.failLocked(err)
		return
	}
	ph.subs[k].lat.record(d)
	if p != nil {
		ph.pending = append(ph.pending, p)
	}
	if ph.stages != nil {
		addServerTiming(ph.stages, timing)
	}
}

// fail counts an already recorded op as failed.
func (ph *phase) fail(err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.failLocked(err)
}

func (ph *phase) failLocked(err error) {
	ph.failed++
	if ph.firstErr == nil {
		ph.firstErr = err
	}
}

// addServerTiming folds "name;dur=ms, ..." values into per-stage sums in
// microseconds.
func addServerTiming(sum map[string]float64, values []string) {
	for _, v := range values {
		for _, item := range strings.Split(v, ",") {
			name, dur, ok := strings.Cut(strings.TrimSpace(item), ";dur=")
			if !ok {
				continue
			}
			if ms, err := strconv.ParseFloat(dur, 64); err == nil {
				sum[name] += ms * 1e3
			}
		}
	}
}

// sender performs one exchange into buf: over HTTP, or by calling a
// handler in-process.
type sender func(body []byte, buf *bytes.Buffer) (status int, timing []string, err error)

func httpSender(c *client, url string) sender {
	return func(body []byte, buf *bytes.Buffer) (int, []string, error) {
		return c.post(url, body, buf)
	}
}

func handlerSender(h http.Handler, path string) sender {
	return func(body []byte, buf *bytes.Buffer) (int, []string, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		rr.Body = buf
		h.ServeHTTP(rr, req)
		return rr.Code, rr.Header().Values("Server-Timing"), nil
	}
}

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// lane is one way to send a request, with the phase that records it.
type lane struct {
	send sender
	ph   *phase
}

// laneBlock is how many consecutive requests take one lane before the
// next lane's turn. It is a multiple of both list cycles (32 hot bodies, 8
// cold machines), so every lane sees the same mix of bodies.
const laneBlock = 32

// drive runs the closed loop for the first lane's phase length:
// `clients` workers, each sending the workload's next request (a shared
// index, so no body is sent twice unless the list cycles) down its lane
// and checking the reply. Lanes take turns in blocks, so they share the
// host's conditions. The latency covers the exchange only, not the check.
func drive(w *workload, next *atomic.Int64, lanes ...lane) error {
	for _, l := range lanes {
		l.ph.begin()
	}
	ph0 := lanes[0].ph
	_, err := loadgen.Run(loadgen.Config{
		Concurrency: clients,
		Duration:    ph0.subLen * time.Duration(len(ph0.subs)),
		Do: func() error {
			i := int(next.Add(1) - 1)
			l := lanes[i/laneBlock%len(lanes)]
			body := w.body(i)
			buf := bufPool.Get().(*bytes.Buffer)
			buf.Reset()
			start := time.Now()
			status, timing, err := l.send(body, buf)
			lat := time.Since(start)
			var p *pendingCheck
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("request %d: status %d: %s", i, status, firstLine(buf.Bytes()))
			}
			if err == nil {
				p, err = w.check(i, buf.Bytes())
			}
			bufPool.Put(buf)
			l.ph.record(lat, p, timing, err)
			return err
		},
	})
	return err
}

// finishChecks completes the phase's deferred checks on `clients`
// goroutines, counting each mismatch as a failed op.
func (ph *phase) finishChecks(w *workload) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(ph.pending); j = int(next.Add(1) - 1) {
				if err := w.finish(ph.pending[j]); err != nil {
					ph.fail(err)
				}
			}
		}()
	}
	wg.Wait()
	ph.pending = nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
