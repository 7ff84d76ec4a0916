package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"numaio/internal/cli"
	"numaio/internal/core"
	"numaio/internal/fabric"
	"numaio/internal/numa"
	"numaio/internal/service"
	"numaio/internal/topology"
)

const (
	// probeBodies and probeRounds size the lookup-chain probes: each
	// function is timed probeBodies×probeRounds times on the last bodies
	// the run sent, whose models are still in the 64-entry model cache.
	probeBodies = 48
	probeRounds = 32
	// characterizeBudget bounds the CharacterizeAll probe: whole passes
	// over the workload's machines until this much time is spent.
	characterizeBudget = time.Second
)

// runTraced measures the per-layer metrics. After set-up and warm-up it
// sends the workload's traffic down interleaved lanes for the window,
// reading the program's own counters around them:
//
//   - over HTTP, as the end-to-end run does: latency as the client sees
//     it, and the Server-Timing stages of every response;
//   - straight into the replica's handler, and on gateway-hot into the
//     gateway's, skipping net/http.
//
// It then times calls into each layer's public functions on the
// workload's bodies: resolve, fingerprint, model lookup, Eq. 1, and
// CharacterizeAll on the machines set-up characterizes.
func runTraced(w *workload, window time.Duration) (*result, error) {
	s, _, _, err := boot(w, true, 1)
	if err != nil {
		return nil, err
	}
	defer s.close()
	c := newClient(clients)
	defer c.close()
	var next atomic.Int64

	warm := newPhase(warmup, 1, false)
	if err := drive(w, &next, lane{httpSender(c, s.entry+w.endpoint), warm}); err != nil {
		return nil, err
	}
	warmDials := c.dials.Load()

	wire, replica, gateway := newPhase(window, 1, true), newPhase(window, 1, false), newPhase(window, 1, false)
	lanes := []lane{
		{httpSender(c, s.entry+w.endpoint), wire},
		{handlerSender(s.svc.Handler(), w.endpoint), replica},
	}
	if w.gateway {
		lanes = append(lanes, lane{handlerSender(s.gw.Handler(), w.endpoint), gateway})
	}
	fab0, mc0, rc0, acc0 := fabric.ReadStats(), s.svc.Cache().Stats(), respCacheCounts(s.svc), s.accepts.Load()
	if err := drive(w, &next, lanes...); err != nil {
		return nil, err
	}
	fab1, mc1, rc1, acc1 := fabric.ReadStats(), s.svc.Cache().Stats(), respCacheCounts(s.svc), s.accepts.Load()
	if err := checkDials(c, warmDials); err != nil {
		return nil, err
	}
	phases := []*phase{warm, wire, replica, gateway}
	for _, ph := range phases {
		ph.finishChecks(w)
	}

	probes, err := probeLookup(w, s.svc, int(next.Load()))
	if err != nil {
		return nil, err
	}
	charAll, sweepSelf, err := probeCharacterize(w.machines)
	if err != nil {
		return nil, err
	}

	// Counters cover every lane; upstream connections only the requests
	// that crossed the gateway.
	ops := float64(wire.ops + replica.ops + gateway.ops)
	entry, forwarded := replica, 0.0
	if w.gateway {
		entry, forwarded = gateway, float64(wire.ops+gateway.ops)
	}
	solves := fab1.Solves - fab0.Solves
	m := map[string]metric{
		"fabric.solves_per_op":          {float64(solves) / ops, "count"},
		"fabric.solve_us_per_op":        {float64(fab1.SolveNanos-fab0.SolveNanos) / 1e3 / ops, "us"},
		"fabric.incremental_ratio":      {ratio(fab1.IncrementalSolves-fab0.IncrementalSolves, solves), "ratio"},
		"core.characterize_all_us":      {charAll, "us"},
		"core.sweep_self_us":            {sweepSelf, "us"},
		"core.predict_us":               {probes.predict, "us"},
		"cli.resolve_us":                {probes.resolve, "us"},
		"topology.fingerprint_us":       {probes.fingerprint, "us"},
		"service.handler_us":            {replica.all().quantile(0.5), "us"},
		"service.model_lookup_us":       {probes.lookup, "us"},
		"service.resp_cache_hit_ratio":  {ratio(rc1.hits-rc0.hits, rc1.hits-rc0.hits+rc1.misses-rc0.misses), "ratio"},
		"service.model_cache_hit_ratio": {cacheHitRatio(mc0, mc1), "ratio"},
		"fleet.handler_us":              {gateway.all().quantile(0.5), "us"},
		"fleet.upstream_conns_per_kop":  {0, "conns/kop"},
		"http.transport_us":             {wire.all().quantile(0.5) - entry.all().quantile(0.5), "us"},
	}
	if forwarded > 0 {
		m["fleet.upstream_conns_per_kop"] = metric{float64(acc1-acc0) * 1e3 / forwarded, "conns/kop"}
	}
	for _, st := range []struct{ layer, stage string }{
		{"service", "queue"}, {"service", "cache"}, {"service", "solve"}, {"service", "encode"},
		{"fleet", "route"}, {"fleet", "forward"},
	} {
		m[st.layer+".stage_"+st.stage+"_us"] = metric{wire.stages[st.stage] / float64(wire.ops), "us"}
	}

	res := &result{Metrics: m}
	for _, ph := range phases {
		res.Attempted += ph.ops
		res.Failed += ph.failed
	}
	res.Correct = res.Failed == 0
	reportFirstError(w, phases...)
	return res, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// cacheHitRatio is the share of model-cache lookups served without a
// characterization: hits plus coalesced followers over all lookups.
func cacheHitRatio(a, b service.CacheStats) float64 {
	hits := b.Hits - a.Hits + b.Coalesced - a.Coalesced
	return ratio(hits, hits+b.Misses-a.Misses)
}

type hitMiss struct{ hits, misses int64 }

// respCacheCounts reads the predict response cache's counters from the
// replica's /metrics exposition.
func respCacheCounts(svc *service.Server) hitMiss {
	var buf bytes.Buffer
	svc.WriteMetrics(&buf)
	var hm hitMiss
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "numaiod_predict_cache_hits_total":
			hm.hits = n
		case "numaiod_predict_cache_misses_total":
			hm.misses = n
		}
	}
	return hm
}

// lookupProbes are median call times, in µs, of the model-lookup chain a
// response-cache miss runs: cli.ResolveMachine → topology.Fingerprint →
// ModelCache.FindByFingerprint → MachineModel.ModelFor + Model.Predict.
type lookupProbes struct {
	resolve, fingerprint, lookup, predict float64
}

// probeLookup times the chain on the last probeBodies bodies sent before
// index end. Bodies without Eq. 1 inputs (characterize-cold) report a
// predict time of 0.
func probeLookup(w *workload, svc *service.Server, end int) (lookupProbes, error) {
	var resolve, fingerprint, lookup, predict []float64
	us := func(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e3 }
	for r := 0; r < probeRounds; r++ {
		for i := max(end-probeBodies, 0); i < end; i++ {
			raw, err := machineOf(w.body(i))
			if err != nil {
				return lookupProbes{}, err
			}
			start := time.Now()
			m, err := cli.ResolveMachine(raw)
			resolve = append(resolve, us(start))
			if err != nil {
				return lookupProbes{}, err
			}
			start = time.Now()
			fp, err := topology.Fingerprint(m)
			fingerprint = append(fingerprint, us(start))
			if err != nil {
				return lookupProbes{}, err
			}
			start = time.Now()
			mm, ok := svc.Cache().FindByFingerprint(fp)
			lookup = append(lookup, us(start))
			if !ok {
				return lookupProbes{}, fmt.Errorf("request %d: model %s is not cached", i, fp)
			}
			if w.spec == nil {
				continue
			}
			sp := w.spec(i)
			mode, err := core.ParseMode(sp.Mode)
			if err != nil {
				return lookupProbes{}, err
			}
			mix := make(map[topology.NodeID]float64, len(sp.Nodes))
			for k, n := range sp.Nodes {
				mix[topology.NodeID(n)] = sp.Fracs[k]
			}
			start = time.Now()
			model, err := mm.ModelFor(topology.NodeID(sp.Target), mode)
			if err == nil {
				_, err = model.Predict(mix, nil)
			}
			predict = append(predict, us(start))
			if err != nil {
				return lookupProbes{}, err
			}
		}
	}
	return lookupProbes{median(resolve), median(fingerprint), median(lookup), median(predict)}, nil
}

// probeCharacterize times Characterizer.CharacterizeAll in whole passes
// over the machines until the budget is spent. It returns the mean time
// per call and that time less the fabric solver's share (the sweep's own
// work), both in µs. The sweep runs serially, so solver time nests inside
// the call's wall time and the subtraction is a true self time.
func probeCharacterize(machines []*topology.Machine) (float64, float64, error) {
	var total, solve time.Duration
	calls := 0
	for total < characterizeBudget || calls == 0 {
		for _, m := range machines {
			sys, err := numa.NewSystem(m)
			if err != nil {
				return 0, 0, err
			}
			ch, err := core.NewCharacterizer(sys, core.Config{Parallelism: 1})
			if err != nil {
				return 0, 0, err
			}
			before := fabric.ReadStats().SolveNanos
			start := time.Now()
			if _, err := ch.CharacterizeAll(); err != nil {
				return 0, 0, err
			}
			total += time.Since(start)
			solve += time.Duration(fabric.ReadStats().SolveNanos - before)
			calls++
		}
	}
	n := float64(calls)
	return float64(total.Microseconds()) / n, float64((total - solve).Microseconds()) / n, nil
}
