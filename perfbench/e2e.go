package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// setupBefore and setupAfter are how many times a run boots the
	// daemons and fills the model cache before and after the window;
	// setup_s is the median of all of them. Spreading them over the run
	// keeps one burst of background load from moving every repetition.
	setupBefore = 5
	setupAfter  = 4
	// warmup is the discarded load before the window: it opens the
	// client's connections, fills the response cache on the hot workloads
	// and lets the heap reach its working size.
	warmup = 2 * time.Second
	// subWindowLen is the length of the slices the window is cut into, so
	// that the timings can leave out the seconds the host took CPU away.
	subWindowLen = time.Second
	// minSamples keeps at least ten latencies beyond the reported p99.
	minSamples = 1000
)

// boot runs set-up reps times and returns the last stack and each
// repetition's time and steal ticks. Each repetition boots fresh daemons
// and fills their model cache through the entry daemon, as a deployment
// would.
func boot(w *workload, countAccepts bool, reps int) (*stack, []float64, []int64, error) {
	var s *stack
	var times []float64
	var steals []int64
	for r := 0; r < reps; r++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, nil, err
			}
		}
		runtime.GC()
		start, steal := time.Now(), stealTicks()
		var err error
		if s, err = startStack(w.gateway, countAccepts); err != nil {
			return nil, nil, nil, err
		}
		c := newClient(1)
		err = s.fill(c, w.setup)
		times = append(times, time.Since(start).Seconds())
		steals = append(steals, stealTicks()-steal)
		c.close()
		if err != nil {
			s.close()
			return nil, nil, nil, err
		}
	}
	return s, times, steals, nil
}

// runE2E measures the end-to-end metrics: set-up, then a discarded
// warm-up, then `window` of closed-loop load over loopback HTTP, then
// more set-up repetitions.
func runE2E(w *workload, window time.Duration) (*result, error) {
	s, setups, steals, err := boot(w, false, setupBefore)
	if err != nil {
		return nil, err
	}
	res, err := measure(w, s, window)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	s, more, moreSteals, err := boot(w, false, setupAfter)
	if err != nil {
		return nil, err
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	setups, steals = append(setups, more...), append(steals, moreSteals...)
	var kept []float64
	for _, r := range calm(steals, setups) {
		kept = append(kept, setups[r])
	}
	fmt.Fprintf(os.Stderr, "%s: setup_s from %d of %d set-ups\n", w.name, len(kept), len(setups))
	res.Metrics["setup_s"] = metric{median(kept), "s"}
	return res, nil
}

// measure drives the warm-up and the window against a booted stack.
func measure(w *workload, s *stack, window time.Duration) (*result, error) {
	c := newClient(clients)
	defer c.close()
	send := httpSender(c, s.entry+w.endpoint)
	var next atomic.Int64

	warm := newPhase(warmup, 1, false)
	if err := drive(w, &next, lane{send, warm}); err != nil {
		return nil, err
	}
	warmDials := c.dials.Load()
	ph := newPhase(window, max(1, int(window/subWindowLen)), false)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := drive(w, &next, lane{send, ph}); err != nil {
		return nil, err
	}
	var end subWindow
	end.mark()
	runtime.ReadMemStats(&ms1)
	if err := checkDials(c, warmDials); err != nil {
		return nil, err
	}
	warm.finishChecks(w)
	ph.finishChecks(w)

	// Each sub-window runs to the next one reached. One in which nothing
	// completed has no length: the one before it absorbed the stall.
	var spans []*subWindow
	var secs []float64
	var cpus []time.Duration
	var steals []int64
	stop := end
	for k := len(ph.subs) - 1; k >= 0; k-- {
		sw := &ph.subs[k]
		if sw.wallStart.IsZero() {
			continue
		}
		if sw.ops > 0 {
			spans = append(spans, sw)
			secs = append(secs, stop.wallStart.Sub(sw.wallStart).Seconds())
			cpus = append(cpus, stop.cpuStart-sw.cpuStart)
			steals = append(steals, stop.stealStart-sw.stealStart)
		}
		stop = *sw
	}
	lat := newLatencies()
	var ops int64
	var wall float64
	var cpu time.Duration
	keep := calm(steals, secs)
	for _, k := range keep {
		lat.add(spans[k].lat)
		ops += spans[k].ops
		wall += secs[k]
		cpu += cpus[k]
	}
	fmt.Fprintf(os.Stderr, "%s: timings from %d of %d sub-windows\n", w.name, len(keep), len(spans))
	if lat.n < minSamples {
		return nil, fmt.Errorf("only %d latency samples, fewer than %d; raise --seconds", lat.n, minSamples)
	}
	res := &result{
		Attempted: warm.ops + ph.ops,
		Failed:    warm.failed + ph.failed,
		Metrics: map[string]metric{
			"ops_per_s":       {float64(ops) / wall, "1/s"},
			"latency_p50_us":  {lat.quantile(0.50), "us"},
			"latency_p99_us":  {lat.quantile(0.99), "us"},
			"cpu_us_per_op":   {cpu.Seconds() * 1e6 / float64(ops), "us"},
			"alloc_kb_per_op": {float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(ph.ops), "KiB"},
		},
	}
	res.Correct = res.Failed == 0
	reportFirstError(w, warm, ph)
	// The live heap is read with the daemons still up; the phases, the
	// benchmark's only per-run state, are dead by now.
	res.Metrics["live_heap_mb"] = metric{liveHeapMiB(), "MiB"}
	return res, nil
}

// checkDials fails the run when the client opened more than its
// `clients` connections, or any after warm-up: connection churn would
// time the kernel's TCP set-up instead of numaio.
func checkDials(c *client, warmDials int64) error {
	if d := c.dials.Load(); d > clients || d != warmDials {
		return fmt.Errorf("measurement invalid: the client dialed %d connections (%d after warm-up); it must hold %d for the whole run",
			d, d-warmDials, clients)
	}
	return nil
}

func reportFirstError(w *workload, phases ...*phase) {
	for _, ph := range phases {
		if ph.firstErr != nil {
			fmt.Fprintf(os.Stderr, "%s: %d failed ops; first: %v\n", w.name, ph.failed, ph.firstErr)
			return
		}
	}
}

// liveHeapMiB is the heap still reachable after two collections (the
// second frees what the first's sweep finalized, e.g. sync.Pool victims).
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuTime is the process's user plus system CPU time: the daemons, the
// clients and the runtime alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealShare is the largest share of the VM's CPU time the hypervisor may
// give to other guests during a sub-window or a set-up repetition for its
// timings to count.
const stealShare = 0.01

// calm returns the indices of the spans (steal ticks over secs seconds)
// the host left alone: those that lost at most stealShare of the VM's CPU
// time to steal. When fewer than a quarter qualify, it returns the quarter
// with the least steal per second, so a run under sustained steal still
// reports its calmest stretches. Where the kernel reports no steal, every
// span qualifies.
func calm(steal []int64, secs []float64) []int {
	perSec := float64(runtime.NumCPU() * clockTicks)
	var keep []int
	for i := range steal {
		if float64(steal[i]) <= stealShare*perSec*secs[i] {
			keep = append(keep, i)
		}
	}
	if quarter := (len(steal) + 3) / 4; len(keep) < quarter {
		keep = keep[:0]
		for i := range steal {
			keep = append(keep, i)
		}
		sort.SliceStable(keep, func(a, b int) bool {
			return float64(steal[keep[a]])/secs[keep[a]] < float64(steal[keep[b]])/secs[keep[b]]
		})
		keep = keep[:quarter]
	}
	return keep
}

// clockTicks is Linux's USER_HZ, the unit of /proc/stat's counters.
const clockTicks = 100

// stealTicks is the VM's steal time so far, in clock ticks: time the
// hypervisor ran other guests while this VM's CPUs had work. It is 0 where
// the kernel does not report it.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}
