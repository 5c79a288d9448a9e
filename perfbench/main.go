// Command perfbench is the repository's benchmark: it measures one
// instrumented operation end to end and layer by layer on three
// workloads (see README.md for the metrics and why each workload exists).
//
//	perfbench --workload scan|kvserve|replay --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the traced ladder instead and reports the per-layer metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Human-readable tables go to standard error. perfbench/run.sh builds
// this command and runs it from the root of the repository; everything
// it builds or writes lives under .bench_build there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory of this run
}

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's JSON summary line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// tally counts workload ops against the correctness gate: an execution
// with a wrong verdict counts all its ops as failed.
type tally struct{ attempted, failed int64 }

func (t *tally) add(ops int64, ok bool) {
	t.attempted += ops
	if !ok {
		t.failed += ops
	}
}

// report collects one run's metrics and notes.
type report struct {
	tally
	correct bool
	values  map[string]float64
	notes   []string // extra lines for the human table
}

func newReport() *report { return &report{correct: true, values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect with a reason.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.note("FAIL: "+format, args...)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		childMain(os.Args[2:])
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload: scan, kvserve or replay")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement time per run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced ladder and reports per-layer metrics")
	fs.Parse(os.Args[1:])
	cfg.trace = *traceFlag == 1

	run, ok := workloads[cfg.workload]
	if !ok {
		fatal("unknown workload %q (want scan, kvserve or replay)", cfg.workload)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal("%v", err)
	}
	work, err := os.MkdirTemp(buildDir, "run-"+cfg.workload+"-")
	if err != nil {
		fatal("%v", err)
	}
	cfg.work = work
	rep, err := run(cfg)
	os.RemoveAll(work)
	if err != nil {
		fatal("%s: %v", cfg.workload, err)
	}
	emit(cfg, rep)
}

var programs = map[string]*progWorkload{"scan": scanWorkload, "kvserve": kvWorkload}

var workloads = map[string]func(config) (*report, error){
	"scan":    func(c config) (*report, error) { return runProgram(c, scanWorkload) },
	"kvserve": func(c config) (*report, error) { return runProgram(c, kvWorkload) },
	"replay":  runReplay,
}

// buildDir holds everything the benchmark builds and writes, relative to
// the repository root it runs from.
var buildDir = filepath.Join(".bench_build", "perfbench")

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// emit prints the human table to stderr and the JSON line to stdout. A
// metric of the selected table that the workload does not exercise
// reads 0 (per-layer only; every end-to-end metric is measured on every
// workload).
func emit(cfg config, rep *report) {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	for name := range rep.values {
		if !known[name] {
			fatal("%s: measured %s, which neither metric table names", cfg.workload, name)
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   rep.correct,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]value{},
	}
	tw := tabwriter.NewWriter(os.Stderr, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "%s seed=%d trace=%v\n", cfg.workload, cfg.seed, cfg.trace)
	fmt.Fprintf(tw, "metric\tvalue\tunit\tshould move\n")
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !cfg.trace {
			fatal("%s: end-to-end metric %s not measured", cfg.workload, d.name)
		}
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
		moves := d.moves
		if !ok {
			moves = "(not on this workload's path)"
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", d.name, v, d.unit, moves)
	}
	fmt.Fprintf(tw, "error_rate\t%.6g\tfraction\tfailed %d of %d ops\n",
		errorRate(rep.failed, rep.attempted), rep.failed, rep.attempted)
	tw.Flush()
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(b))
}
