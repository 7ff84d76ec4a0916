package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"time"

	"numaio/internal/cli"
)

// lists returns each workload's body generator for a seed.
func lists(t *testing.T, seed uint64) map[string]func(int) []byte {
	t.Helper()
	cold, err := newColdList(seed)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func(int) []byte{
		"hot":  newHotList(seed).body,
		"miss": missList{seed: seed}.body,
		"cold": cold.body,
	}
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b, other := lists(t, 7), lists(t, 7), lists(t, 8)
	for kind := range a {
		differs := false
		for i := 0; i < 200; i++ {
			if !bytes.Equal(a[kind](i), b[kind](i)) {
				t.Fatalf("%s body %d differs between two lists from seed 7", kind, i)
			}
			differs = differs || !bytes.Equal(a[kind](i), other[kind](i))
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same 200 bodies", kind)
		}
	}
}

func TestHotListIsAFixedCycleOverAllProfiles(t *testing.T) {
	l := newHotList(3)
	seen := make(map[string]bool)
	profiles := make(map[string]bool)
	for j := 0; j < hotBodies; j++ {
		b := l.body(j)
		if seen[string(b)] {
			t.Fatalf("hot body %d repeats an earlier one", j)
		}
		seen[string(b)] = true
		profiles[l.spec(j).Profile] = true
		for _, k := range []int{j + hotBodies, j + 5*hotBodies} {
			if !bytes.Equal(l.body(k), b) {
				t.Fatalf("hot body %d differs from body %d", k, j)
			}
		}
	}
	if len(profiles) != len(servingProfiles) {
		t.Errorf("hot list covers %d profiles, want all %d", len(profiles), len(servingProfiles))
	}
}

func TestMissBodiesAreAllUnique(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		l := missList{seed: seed}
		seen := make(map[string]int)
		for i := 0; i < 50000; i++ {
			b := string(l.body(i))
			if j, ok := seen[b]; ok {
				t.Fatalf("seed %d: body %d repeats body %d", seed, i, j)
			}
			seen[b] = i
		}
	}
}

func TestPredictBodiesAreValid(t *testing.T) {
	l := missList{seed: 4}
	for i := 0; i < 2000; i++ {
		s := l.spec(i)
		var req struct {
			Machine string             `json:"machine"`
			Target  int                `json:"target"`
			Mode    string             `json:"mode"`
			Mix     map[string]float64 `json:"mix"`
		}
		if err := json.Unmarshal(l.body(i), &req); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if req.Machine != s.Profile || req.Target != s.Target || req.Mode != s.Mode {
			t.Fatalf("body %d does not render its spec %+v", i, s)
		}
		if n := len(req.Mix); n < 2 || n > 4 {
			t.Fatalf("body %d mixes %d nodes, want 2-4", i, n)
		}
		var sum float64
		for k, f := range s.Fracs {
			sum += f
			if req.Mix[strconv.Itoa(s.Nodes[k])] != f {
				t.Fatalf("body %d: fraction of node %d does not round-trip", i, s.Nodes[k])
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("body %d: fractions sum to %v", i, sum)
		}
	}
}

func TestColdListRotatesEightNodeMachinesUnderUniqueNames(t *testing.T) {
	l, err := newColdList(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(coldProfiles) != 8 {
		t.Fatalf("%d cold profiles, want 8", len(coldProfiles))
	}
	names := make(map[string]bool)
	for i := 0; i < 64; i++ {
		raw, err := machineOf(l.body(i))
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		m, err := cli.ResolveMachine(raw)
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if n := len(m.NodeIDs()); n != 8 {
			t.Errorf("body %d: %d nodes, want 8", i, n)
		}
		if m.Name != l.hostName(i) || names[m.Name] {
			t.Fatalf("body %d: name %q is not the fresh name %q", i, m.Name, l.hostName(i))
		}
		names[m.Name] = true
		if i >= len(coldProfiles) && !bytes.Equal(sansName(l, i), sansName(l, i-len(coldProfiles))) {
			t.Errorf("body %d is not body %d's machine under a new name", i, i-len(coldProfiles))
		}
	}
}

// sansName is cold body i with its host name cut out.
func sansName(l *coldList, i int) []byte {
	name, _ := json.Marshal(l.hostName(i))
	return bytes.Replace(l.body(i), name, nil, 1)
}

func TestLeadingFingerprint(t *testing.T) {
	fp, err := leadingFingerprint([]byte(`{"fingerprint": "abc", "model": {"x": [1, 2]}}`))
	if err != nil || fp != "abc" {
		t.Fatalf("got %q, %v", fp, err)
	}
	if _, err := leadingFingerprint([]byte(`{"model": {}, "fingerprint": "abc"}`)); err == nil {
		t.Fatal("a response not opening with its fingerprint was accepted")
	}
}

func TestLatencyQuantilesKeepTheirDigits(t *testing.T) {
	h := newLatencies()
	for v := 1; v <= 1000; v++ {
		h.record(time.Duration(v) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}} {
		if got := h.quantile(c.q); math.Abs(got-c.want)/c.want > 1.0/512 {
			t.Errorf("q%v = %v µs, want %v within 1/512", c.q, got, c.want)
		}
	}
}
