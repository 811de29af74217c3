// Command bench is the repository's benchmark: five workloads, six end-to-end
// metrics, and a traced run that gives the per-layer numbers. README.md in
// this directory says what each one means and why it is shaped as it is.
//
//	bash bench/run.sh                                   # all five workloads, untraced
//	bash bench/run.sh --workload serve-inproc --seed 3  # one workload
//	bash bench/run.sh --workload delegate-flat --trace 1
//	bash bench/run.sh --repeat 2x10                     # calibration
//
// A run of one workload ends with one JSON object on the last line of its
// standard output; everything before it is for people.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func workloads() []*workload {
	return []*workload{
		appsWorkload(),
		delegateWorkload(false),
		delegateWorkload(true),
		serveInprocWorkload(),
		serveHTTPWorkload(),
	}
}

// runSeconds is the window the declaration asks the driver for.
const runSeconds = 18

// declaration renders BENCHMARK.json from the tables in this package, which
// are what the runs report from; the self-test compares it with the file.
func declaration() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	d := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []named   `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads() {
		d.Workloads = append(d.Workloads, named{w.name, w.why})
	}
	for _, m := range endToEnd {
		d.EndToEnd = append(d.EndToEnd, bounded{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		d.PerLayer = append(d.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return out
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	repeat   string
	dir, src string
	describe bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "apps-m, delegate-flat, delegate-rec, serve-inproc, serve-http, or all (each in a fresh process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.quick, "quick", false, "tiny inputs and a short window: checks that everything runs, measures nothing")
	flag.StringVar(&o.repeat, "repeat", "", "calibration: SETSxRUNS, e.g. 2x10 for two interleaved sets of ten runs of every workload")
	flag.StringVar(&o.dir, "dir", ".bench_build", "scratch directory: state directories, the ssserve binary, span files")
	flag.StringVar(&o.src, "src", "", "the benchmark's module directory (default: found from the working directory)")
	flag.BoolVar(&o.describe, "describe", false, "print the benchmark's declaration, the content of BENCHMARK.json, and exit")
	flag.Parse()
	if o.describe {
		fmt.Println(string(declaration()))
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace takes 0 or 1")
	}
	if o.src == "" {
		src, err := findSource()
		if err != nil {
			return err
		}
		o.src = src
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	switch {
	case o.repeat != "":
		return calibrate(o)
	case o.workload == "all":
		return runAll(o)
	}
	for _, w := range workloads() {
		if w.name == o.workload {
			return runOne(w, o)
		}
	}
	return fmt.Errorf("unknown workload %q", o.workload)
}

// findSource locates this module from the working directory: the benchmark is
// started from the root of a checkout or from its own directory.
func findSource() (string, error) {
	for _, dir := range []string{".", "bench"} {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module repro/bench\n")) {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cannot find the benchmark's module; run from the root of the checkout or pass --src")
}

// runOne runs one workload in this process and prints its result line. A
// correctness failure still prints the line, with "correct": false, and then
// fails the run.
func runOne(w *workload, o options) error {
	e := &env{seed: o.seed, quick: o.quick, nproc: runtime.NumCPU(), dir: o.dir, src: o.src, log: os.Stdout}
	e.logf("%s: seed %d, %d CPUs, %d delegates, %s, %.0f s window, trace %d",
		w.name, e.seed, e.nproc, e.delegates(), runtime.Version(), o.seconds, o.trace)
	var res *result
	var err error
	if o.trace == 1 {
		res, err = tracedRun(w, e, o.seconds)
	} else {
		res, err = untracedRun(w, e, o.seconds)
	}
	if err != nil {
		line, _ := json.Marshal(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		fmt.Println(string(line))
		return err
	}
	printMetrics(res)
	line, merr := json.Marshal(res)
	if merr != nil {
		return merr
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		// A failed operation misses every latency bound there is.
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// child runs one workload in a fresh process, so no workload inherits
// another's heap, page cache warmth or peak RSS, and returns its result line.
func child(o options, workload string, seed uint64, echo bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(o.seconds),
		"--trace", fmt.Sprint(o.trace), "--dir", o.dir, "--src", o.src}
	if o.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	outBytes, runErr := cmd.Output()
	out := strings.TrimRight(string(outBytes), "\n")
	if echo {
		fmt.Println(out)
	}
	var res result
	if err := json.Unmarshal([]byte(out[strings.LastIndexByte(out, '\n')+1:]), &res); err != nil {
		return nil, fmt.Errorf("%s: no result line: %v (%v)", workload, err, runErr)
	}
	if runErr != nil {
		return &res, fmt.Errorf("%s: %v", workload, runErr)
	}
	return &res, nil
}

func runAll(o options) error {
	var failed []string
	for _, w := range workloads() {
		if res, err := child(o, w.name, o.seed, true); err != nil || !res.Correct {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
