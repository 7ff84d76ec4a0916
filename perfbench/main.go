// Command perfbench is numaio's end-to-end benchmark. It boots numaiod
// (and, for gateway-hot, numaiogw in front of it) in this process, exactly
// as the daemons build themselves with default flags, drives loopback HTTP
// from one closed-loop client, checks every response, and prints the
// metrics as one JSON object on the last line of standard output.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same
// traffic and times the layers from outside instead. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records what a result was measured on.
type stamp struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        int    `json:"trace"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Go           string `json:"go"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fset.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fset.Uint64("seed", 1, "seed of the request lists")
	seconds := fset.Int("seconds", 24, "length of the measured window")
	trace := fset.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	commit := fset.String("commit", "unknown", "commit the program was built from, for the stamp")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if fset.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		return err
	}
	st := stamp{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: *commit, SourceSHA256: sourceDigest("."),
	}

	window := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, window)
	} else {
		res, err = runE2E(w, window)
	}
	if err != nil {
		return err
	}
	stampLine, _ := json.Marshal(map[string]stamp{"stamp": st}) // plain fields always marshal
	fmt.Fprintln(out, string(stampLine))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// sourceDigest hashes the Go sources and go.mod files under root, naming
// the code measured when the checkout carries no commit.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
