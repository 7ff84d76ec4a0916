package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"numaio/internal/cli"
	"numaio/internal/core"
	"numaio/internal/service"
	"numaio/internal/topology"
)

// workload is one traffic mix: which daemon it enters, the request bodies
// it sends, how set-up fills the model cache, and how a response is
// checked.
type workload struct {
	name     string
	endpoint string
	gateway  bool // enter through numaiogw instead of the replica
	// body returns request i; bodies are a pure function of (seed, i).
	body func(i int) []byte
	// setup are the /v1/characterize bodies that fill the model cache.
	setup [][]byte
	// check verifies one 200 response to request i. It runs inside the
	// measured loop, so it must be cheap; work that calls heavy program
	// code is deferred into the returned pending value (nil when none).
	check func(i int, resp []byte) (pending *pendingCheck, err error)
	// machines are what set-up characterizes, for the traced run's
	// CharacterizeAll probe.
	machines []*topology.Machine
	// spec returns the Eq. 1 inputs of request i; nil for characterize-cold.
	spec func(i int) predictSpec
}

// pendingCheck is a check finished after the measured window: a
// characterize response's fingerprint, compared against
// topology.Fingerprint of the machine sent, which costs more than the
// client should spend inside the window.
type pendingCheck struct {
	i  int
	fp string
}

var workloadNames = []string{"predict-hot", "predict-miss", "gateway-hot", "characterize-cold"}

// newWorkload builds the named workload's request list from the seed.
// Predict workloads also characterize the ten profiles in-process, the
// reference their answers must match bit for bit.
func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "predict-hot", "gateway-hot":
		l := newHotList(seed)
		return predictWorkload(name, name == "gateway-hot", l.spec, l.body, hotBodies)
	case "predict-miss":
		l := missList{seed: seed}
		return predictWorkload(name, false, l.spec, l.body, 0)
	case "characterize-cold":
		return coldWorkload(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// predictWorkload checks answers against the reference; when the list is
// a cycle of that many bodies, their answers are computed once up front.
func predictWorkload(name string, gateway bool, spec func(int) predictSpec, body func(int) []byte, cycle int) (*workload, error) {
	ref := make(map[string]*core.MachineModel, len(servingProfiles))
	w := &workload{name: name, endpoint: "/v1/predict", gateway: gateway, body: body, spec: spec}
	for _, p := range servingProfiles {
		m, err := topology.ProfileByName(p)
		if err != nil {
			return nil, err
		}
		mm, err := service.DefaultCharacterize(context.Background(), m, core.Config{})
		if err != nil {
			return nil, fmt.Errorf("reference model of %s: %w", p, err)
		}
		ref[p] = mm
		w.machines = append(w.machines, m)
		w.setup = append(w.setup, []byte(fmt.Sprintf(`{"machine":%q}`, p)))
	}
	want := func(i int) (float64, error) { s := spec(i); return s.predict(ref[s.Profile]) }
	if cycle > 0 {
		wants := make([]float64, cycle)
		for j := range wants {
			var err error
			if wants[j], err = want(j); err != nil {
				return nil, fmt.Errorf("reference answer %d: %w", j, err)
			}
		}
		want = func(i int) (float64, error) { return wants[i%cycle], nil }
	}
	w.check = func(i int, resp []byte) (*pendingCheck, error) {
		var got struct {
			Fingerprint  string  `json:"fingerprint"`
			Target       int     `json:"target"`
			Mode         string  `json:"mode"`
			PredictedBPS float64 `json:"predicted_bps"`
		}
		if err := json.Unmarshal(resp, &got); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		s := spec(i)
		mm := ref[s.Profile]
		bps, err := want(i)
		if err != nil {
			return nil, fmt.Errorf("request %d: reference: %w", i, err)
		}
		if got.Fingerprint != mm.Fingerprint || got.Target != s.Target || got.Mode != s.Mode ||
			math.Float64bits(got.PredictedBPS) != math.Float64bits(bps) {
			return nil, fmt.Errorf("request %d: got %s node %d %s %v bps, want %s node %d %s %v bps",
				i, got.Fingerprint, got.Target, got.Mode, got.PredictedBPS,
				mm.Fingerprint, s.Target, s.Mode, bps)
		}
		return nil, nil
	}
	return w, nil
}

// predict evaluates Eq. 1 for the spec on a characterized model, the way
// the daemon's /v1/predict does: ModelFor, then Predict.
func (s predictSpec) predict(mm *core.MachineModel) (float64, error) {
	mode, err := core.ParseMode(s.Mode)
	if err != nil {
		return 0, err
	}
	model, err := mm.ModelFor(topology.NodeID(s.Target), mode)
	if err != nil {
		return 0, err
	}
	mix := make(map[topology.NodeID]float64, len(s.Nodes))
	for k, n := range s.Nodes {
		mix[topology.NodeID(n)] = s.Fracs[k]
	}
	bw, err := model.Predict(mix, nil)
	return float64(bw), err
}

func coldWorkload(seed uint64) (*workload, error) {
	l, err := newColdList(seed)
	if err != nil {
		return nil, err
	}
	w := &workload{name: "characterize-cold", endpoint: "/v1/characterize", body: l.body}
	for p, name := range coldProfiles {
		m, err := topology.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		// The throwaway warm-up names cannot collide with measured ones,
		// which always end in "-<index>".
		m.Name = name + "-warm"
		w.machines = append(w.machines, m)
		w.setup = append(w.setup, l.bodyNamed(p, m.Name))
	}
	w.check = func(i int, resp []byte) (*pendingCheck, error) {
		fp, err := leadingFingerprint(resp)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		return &pendingCheck{i: i, fp: fp}, nil
	}
	return w, nil
}

// leadingFingerprint reads the "fingerprint" member that opens a
// characterize response without decoding the model that follows it.
func leadingFingerprint(resp []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(resp))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return "", fmt.Errorf("characterize response is not a JSON object")
	}
	key, err := dec.Token()
	if err != nil || key != "fingerprint" {
		return "", fmt.Errorf("characterize response does not open with a fingerprint")
	}
	val, err := dec.Token()
	fp, ok := val.(string)
	if err != nil || !ok {
		return "", fmt.Errorf("characterize response has no string fingerprint")
	}
	return fp, nil
}

// finish completes a deferred check: the fingerprint must equal
// topology.Fingerprint of the machine that request i sent.
func (w *workload) finish(p *pendingCheck) error {
	raw, err := machineOf(w.body(p.i))
	if err != nil {
		return err
	}
	m, err := cli.ResolveMachine(raw)
	if err != nil {
		return err
	}
	want, err := topology.Fingerprint(m)
	if err != nil {
		return err
	}
	if p.fp != want {
		return fmt.Errorf("request %d: fingerprint %s, want %s", p.i, p.fp, want)
	}
	return nil
}
