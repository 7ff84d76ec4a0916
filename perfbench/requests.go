package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"

	"numaio/internal/topology"
)

// servingProfiles are the ten named profiles the serving workloads cover;
// their set-up characterizes every one of them.
var servingProfiles = []string{
	"dl585g7", "dl585g7-dualport", "magny-a", "magny-b", "magny-c",
	"magny-d", "intel-4s4n", "amd-4s8n", "amd-8s8n", "hp-blade32",
}

// coldProfiles are the eight 8-node profiles characterize-cold rotates
// over. hp-blade32 (32 nodes, 30-100× the work of the others) and intel-4s4n
// (4 nodes) are left out so every request costs about the same.
var coldProfiles = []string{
	"dl585g7", "dl585g7-dualport", "magny-a", "magny-b", "magny-c",
	"magny-d", "amd-4s8n", "amd-8s8n",
}

// hotBodies is the length of the fixed cycle predict-hot and gateway-hot
// replay; it fits the daemon's response cache many times over.
const hotBodies = 32

// Streams keep the random draws of the three list kinds apart, so the same
// seed gives unrelated hot, miss and cold lists.
const (
	streamHot uint64 = iota + 1
	streamMiss
	streamCold
)

// rngAt returns the generator for element i of a stream: every element is
// a pure function of (seed, stream, i), so a list is reproducible, can be
// generated lazily from any index, and need not be held in memory.
func rngAt(seed, stream uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<56|uint64(i)))
}

// predictSpec is one /v1/predict request: a named profile, a target node,
// a direction and a 2-4 node traffic mix whose fractions sum to 1.
type predictSpec struct {
	Profile string
	Target  int
	Mode    string
	Nodes   []int     // ascending
	Fracs   []float64 // Fracs[k] is the share of Nodes[k]
}

// nodeIDs caches each profile's node IDs (profiles are immutable).
var nodeIDs = func() map[string][]int {
	out := make(map[string][]int, len(servingProfiles))
	for _, name := range servingProfiles {
		m, err := topology.ProfileByName(name)
		if err != nil {
			panic(err) // the list above names only built-in profiles
		}
		for _, id := range m.NodeIDs() {
			out[name] = append(out[name], int(id))
		}
	}
	return out
}()

// drawPredict draws a target, mode and mix on the profile's nodes.
func drawPredict(r *rand.Rand, profile string) predictSpec {
	nodes := nodeIDs[profile]
	s := predictSpec{Profile: profile, Target: nodes[r.IntN(len(nodes))], Mode: "write"}
	if r.IntN(2) == 1 {
		s.Mode = "read"
	}
	k := 2 + r.IntN(3)
	perm := r.Perm(len(nodes))[:k]
	sort.Ints(perm)
	var sum float64
	weights := make([]float64, k)
	for j := range weights {
		weights[j] = 0.05 + r.Float64()
		sum += weights[j]
	}
	for j, p := range perm {
		s.Nodes = append(s.Nodes, nodes[p])
		s.Fracs = append(s.Fracs, weights[j]/sum)
	}
	return s
}

// body renders the request exactly; floats use the shortest form that
// round-trips, so the daemon decodes the very fractions drawn here.
func (s predictSpec) body() []byte {
	b := make([]byte, 0, 160)
	b = append(b, `{"machine":`...)
	b = strconv.AppendQuote(b, s.Profile)
	b = append(b, `,"target":`...)
	b = strconv.AppendInt(b, int64(s.Target), 10)
	b = append(b, `,"mode":`...)
	b = strconv.AppendQuote(b, s.Mode)
	b = append(b, `,"mix":{`...)
	for k, n := range s.Nodes {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, `":`...)
		b = strconv.AppendFloat(b, s.Fracs[k], 'g', -1, 64)
	}
	return append(b, "}}"...)
}

// hotList is the fixed 32-body cycle of predict-hot and gateway-hot. Body
// j uses profile j mod 10, so all ten profiles appear.
type hotList struct {
	specs  []predictSpec
	bodies [][]byte
}

func newHotList(seed uint64) *hotList {
	l := &hotList{}
	for j := 0; j < hotBodies; j++ {
		s := drawPredict(rngAt(seed, streamHot, j), servingProfiles[j%len(servingProfiles)])
		l.specs = append(l.specs, s)
		l.bodies = append(l.bodies, s.body())
	}
	return l
}

func (l *hotList) spec(i int) predictSpec { return l.specs[i%hotBodies] }
func (l *hotList) body(i int) []byte      { return l.bodies[i%hotBodies] }

// missList is predict-miss's endless list of new bodies: a seeded profile,
// target, mode and mix per index. The fractions carry 52 random bits each,
// so two bodies repeat with negligible probability and every request
// misses the response cache while its profile's model is cached.
type missList struct{ seed uint64 }

func (l missList) spec(i int) predictSpec {
	r := rngAt(l.seed, streamMiss, i)
	return drawPredict(r, servingProfiles[r.IntN(len(servingProfiles))])
}

func (l missList) body(i int) []byte { return l.spec(i).body() }

// coldList is characterize-cold's endless list: body i is an inline copy
// of coldProfiles[i mod 8] renamed to a fresh seeded host name, so its
// fingerprint, and hence its model-cache key, is new every time.
type coldList struct {
	seed uint64
	// head and tail are each profile's machine JSON around its name.
	head, tail [][]byte
}

// nameHole stands in for the host name while the templates are encoded.
const nameHole = "\x00host\x00"

func newColdList(seed uint64) (*coldList, error) {
	l := &coldList{seed: seed}
	for _, name := range coldProfiles {
		m, err := topology.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		m.Name = nameHole
		var buf bytes.Buffer
		if err := m.EncodeJSON(&buf); err != nil {
			return nil, err
		}
		quoted, _ := json.Marshal(nameHole) // a string always marshals
		head, tail, ok := bytes.Cut(buf.Bytes(), quoted)
		if !ok {
			return nil, fmt.Errorf("perfbench: no name field in %s's JSON", name)
		}
		l.head = append(l.head, append([]byte(`{"machine":`), head...))
		l.tail = append(l.tail, append(append([]byte(nil), tail...), '}'))
	}
	return l, nil
}

// hostName is body i's machine name: the profile, a seeded tag and i, so
// names never repeat within a list.
func (l *coldList) hostName(i int) string {
	tag := rngAt(l.seed, streamCold, i).Uint32()
	return fmt.Sprintf("%s-%08x-%d", coldProfiles[i%len(coldProfiles)], tag, i)
}

func (l *coldList) body(i int) []byte {
	return l.bodyNamed(i%len(coldProfiles), l.hostName(i))
}

// bodyNamed is a characterize body for coldProfiles[p] named name.
func (l *coldList) bodyNamed(p int, name string) []byte {
	b := make([]byte, 0, len(l.head[p])+len(l.tail[p])+len(name)+2)
	b = append(b, l.head[p]...)
	b = strconv.AppendQuote(b, name)
	return append(b, l.tail[p]...)
}

// machineOf returns the machine member of a request body: a profile
// name or an inline machine object.
func machineOf(body []byte) (json.RawMessage, error) {
	var req struct {
		Machine json.RawMessage `json:"machine"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return req.Machine, nil
}
