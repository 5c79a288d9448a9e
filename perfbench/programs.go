package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pacer"
	"pacer/perfbench/programs/progio"
)

// pacerSeed fixes the detector's own period-roll seed in every run, so
// the benchmark seed only chooses inputs.
const pacerSeed = 1

// progWorkload is a real Go program built two ways: by pacergo and by
// plain go build. Both read the same generated input; the uninstrumented
// build repeats the timed section so it runs long enough to time.
type progWorkload struct {
	name string
	pkg  string  // package path inside the benchmark module
	rate float64 // PACER_RATE of the measured runs
	// latPerOp divides a latency sample into per-op time: the program
	// times spans of this many ops.
	latPerOp float64
	// inputs generates the instrumented and the uninstrumented input
	// from the benchmark seed; they differ only in the repeat count and
	// (scan) the reads per latency sample.
	inputs func(seed int64) (instr, plain []uint64)
	// verdict checks one instrumented execution's race reports.
	verdict func(races []raceSites) error
	// mirror issues the program's hook stream for the traced rt pass.
	mirror func(in []uint64, p *probe)
	// env is added to the environment of every execution of the
	// program, in every build, and of its traced rt pass.
	env []string
}

const (
	scanSlots   = 1 << 15 // twice the shadow map's initial 16Ki slots
	scanReads   = 20 * 1024
	scanTick    = 32 // reads per latency sample of an instrumented execution
	scanRepeatP = 1000
	kvRequests  = 2000
	kvKeys      = 1024
	kvRepeatP   = 200
)

var scanWorkload = &progWorkload{
	name:     "scan",
	pkg:      "./programs/scan",
	rate:     0.01,
	latPerOp: scanTick,
	// One P: the two workers take turns on one CPU. With two, both
	// builds' speed followed how the host scheduled the second vCPU (the
	// instrumented per-op p50 halved and the slowdown fell by 40% while
	// a busy loop held one vCPU); with one it does not move.
	env: []string{"GOMAXPROCS=1"},
	inputs: func(seed int64) (instr, plain []uint64) {
		rng := rand.New(rand.NewSource(seed))
		seeds := []uint64{rng.Uint64(), rng.Uint64()}
		data := make([]uint64, scanSlots)
		for i := range data {
			data[i] = uint64(rng.Uint32())
		}
		// The uninstrumented build gives only the baseline throughput,
		// so it takes one latency sample per worker and repeat: a clock
		// read every scanTick reads would be a large share of its loop.
		instr = append(append([]uint64{scanReads, 1, scanTick}, seeds...), data...)
		plain = append(append([]uint64{scanReads, scanRepeatP, scanReads}, seeds...), data...)
		return instr, plain
	},
	verdict: func(races []raceSites) error {
		if len(races) > 0 {
			return fmt.Errorf("%d race reports on a race-free program, first %s", len(races), races[0])
		}
		return nil
	},
	mirror: scanMirror,
}

var kvWorkload = &progWorkload{
	name:     "kvserve",
	pkg:      "./programs/kvserve",
	rate:     1,
	latPerOp: 1,
	inputs: func(seed int64) (instr, plain []uint64) {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint64, kvRequests)
		for i := range keys {
			keys[i] = uint64(rng.Intn(kvKeys))
		}
		return append([]uint64{1}, keys...), append([]uint64{kvRepeatP}, keys...)
	},
	verdict: func(races []raceSites) error {
		planted, err := plantedSite()
		if err != nil {
			return err
		}
		if len(races) == 0 {
			return fmt.Errorf("the planted race at %s was not reported at r=1", planted)
		}
		for _, r := range races {
			if r.a != planted || r.b != planted {
				return fmt.Errorf("false report %s (only %s races)", r, planted)
			}
		}
		return nil
	},
	mirror: kvMirror,
}

// plantedSite finds kvserve's marked racy write as the "file:line" site
// pacergo reports.
func plantedSite() (string, error) {
	const file = "programs/kvserve/main.go"
	src, err := os.ReadFile(filepath.Join(modDir, file))
	if err != nil {
		return "", err
	}
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "// planted race") {
			return fmt.Sprintf("%s:%d", file, i+1), nil
		}
	}
	return "", fmt.Errorf("%s has no planted race marker", file)
}

// raceSites is one distinct race report of an instrumented execution.
type raceSites struct{ kind, a, b string }

func (r raceSites) String() string { return fmt.Sprintf("%s %s / %s", r.kind, r.a, r.b) }

// procOut is one program execution's output.
type procOut struct {
	vals   map[string]uint64
	lat    []float64 // ns per latency sample
	stats  *pacer.Stats
	races  []raceSites
	rssKB  int64
	stderr string
}

func (o *procOut) opsPerSec() float64 {
	return ratio(float64(o.vals["ops"]), float64(o.vals["elapsed_ns"])/1e9)
}

// procTimeout bounds one program execution.
const procTimeout = 120 * time.Second

// runProc executes bin, a build of w, on input with w's environment and
// the given settings appended and parses its output.
func runProc(cfg config, w *progWorkload, bin, input string, env ...string) (*procOut, error) {
	racesPath := filepath.Join(cfg.work, "races.jsonl")
	os.Remove(racesPath)
	defer os.Remove(racesPath)
	ctx, cancel := context.WithTimeout(context.Background(), procTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, input)
	cmd.Env = append(os.Environ(), "PACER_SEED="+strconv.Itoa(pacerSeed), "PACER_QUIET=1", "PACER_OUT="+racesPath)
	cmd.Env = append(append(cmd.Env, w.env...), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	out := &procOut{vals: map[string]uint64{}, stderr: stderr.String()}
	if err != nil && !isRaceExit(bin, err) {
		return nil, fmt.Errorf("%s: %v\n%s", filepath.Base(bin), err, stderr.String())
	}
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		key, rest, _ := strings.Cut(sc.Text(), " ")
		switch key {
		case "lat":
			for _, f := range strings.Fields(rest) {
				x, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, err
				}
				out.lat = append(out.lat, x)
			}
		case "stats":
			out.stats = new(pacer.Stats)
			if err := json.Unmarshal([]byte(rest), out.stats); err != nil {
				return nil, err
			}
		default:
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad output line %q", filepath.Base(bin), sc.Text())
			}
			out.vals[key] = v
		}
	}
	if out.vals["ops"] == 0 || out.vals["elapsed_ns"] == 0 || out.vals["peak_rss_kb"] == 0 {
		return nil, fmt.Errorf("%s: no ops, elapsed time or peak RSS in output", filepath.Base(bin))
	}
	out.rssKB = int64(out.vals["peak_rss_kb"])
	delete(out.vals, "peak_rss_kb") // not an output the two builds share
	if b, err := os.ReadFile(racesPath); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			if line == "" {
				continue
			}
			var r struct {
				Kind          string
				First, Second struct{ Site string }
			}
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, err
			}
			out.races = append(out.races, raceSites{r.Kind, r.First.Site, r.Second.Site})
		}
	}
	return out, nil
}

// isRaceExit accepts the exit status a -race binary uses to say it
// found races.
func isRaceExit(bin string, err error) bool {
	ee, ok := err.(*exec.ExitError)
	return ok && strings.HasSuffix(bin, "-race") && ee.ExitCode() == 66
}

func writeInput(cfg config, name string, words []uint64) (string, error) {
	p, err := filepath.Abs(filepath.Join(cfg.work, name))
	if err != nil {
		return "", err
	}
	return p, progio.Write(p, words)
}

// checkExecution applies the correctness gate to one instrumented
// execution: its outputs must equal the uninstrumented build's (else the
// run is incorrect) and its race reports must pass the workload's
// verdict (else its ops count as failed).
func checkExecution(rep *report, w *progWorkload, n int, got, want *procOut) bool {
	ok := true
	for k, v := range want.vals {
		if k != "ops" && k != "elapsed_ns" && got.vals[k] != v {
			rep.fail("%s execution %d: %s %d, uninstrumented build says %d", w.name, n, k, got.vals[k], v)
			ok = false
		}
	}
	if err := w.verdict(got.races); err != nil {
		rep.note("%s execution %d failed the verdict: %v", w.name, n, err)
		ok = false
	}
	return ok
}

// runProgram measures a program workload: set-up (pacergo build),
// then either the measured loop or the traced ladder.
func runProgram(cfg config, w *progWorkload) (*report, error) {
	rep := newReport()
	b := newBuilds(w.name)
	// Untimed warm-up: the tools and one build of each kind fill the
	// build cache, so timed set-up measures the rewriter and an
	// incremental build, not a cold standard-library compile.
	if err := b.buildPacergo(); err != nil {
		return nil, err
	}
	for _, f := range []func(string) error{b.buildInstr, b.buildPlain, b.buildRace} {
		if err := f(w.pkg); err != nil {
			return nil, err
		}
	}
	timed := b
	timed.env = timedBuildEnv
	instrT, err := timeRounds(setupRounds, func() error { return timed.buildInstr(w.pkg) })
	if err != nil {
		return nil, err
	}
	plainT, err := timeRounds(setupRounds, func() error { return timed.buildPlain(w.pkg) })
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(instrT))
	rep.set("pacergo.instrument_s", median(instrT)-median(plainT))

	instrIn, plainIn := w.inputs(cfg.seed)
	instrPath, err := writeInput(cfg, "instr.in", instrIn)
	if err != nil {
		return nil, err
	}
	plainPath, err := writeInput(cfg, "plain.in", plainIn)
	if err != nil {
		return nil, err
	}

	// The uninstrumented build gives the expected outputs and the
	// baseline throughput.
	want, err := runProc(cfg, w, b.plain, plainPath)
	if err != nil {
		return nil, err
	}
	plain := func() (float64, error) {
		o, err := runProc(cfg, w, b.plain, plainPath)
		if err != nil {
			return 0, err
		}
		if o.vals["checksum"] != want.vals["checksum"] {
			return 0, fmt.Errorf("uninstrumented build is not deterministic")
		}
		return o.opsPerSec(), nil
	}
	rate := "PACER_RATE=" + strconv.FormatFloat(w.rate, 'g', -1, 64)

	if cfg.trace {
		return rep, traceProgram(cfg, w, b, rep, instrPath, rate, want, plain)
	}

	// Each instrumented execution is paired with an uninstrumented one.
	var tput, plainTput, rss []float64
	var lats [][]float64 // per execution: µs per op of each latency sample
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		o, err := runProc(cfg, w, b.instr, instrPath, rate)
		if err != nil {
			return nil, err
		}
		rep.add(int64(o.vals["ops"]), checkExecution(rep, w, n, o, want))
		p, err := plain()
		if err != nil {
			return nil, err
		}
		plainTput = append(plainTput, p)
		tput = append(tput, o.opsPerSec())
		rss = append(rss, float64(o.rssKB)/1024)
		lat := make([]float64, len(o.lat))
		for i, x := range o.lat {
			lat[i] = x / w.latPerOp / 1e3
		}
		lats = append(lats, lat)
	}
	ops := median(tput)
	ld := summarize(positionMedians(lats))
	rep.set("ops_per_s", ops)
	rep.set("slowdown_x", pairedSlowdown(plainTput, tput))
	rep.set("op_latency_p50_us", ld.P50)
	rep.set("op_latency_p99_us", ld.Tail)
	rep.set("peak_rss_mb", median(rss))
	rep.note("%d executions; latency over %d positions, each the median of its executions, tail is p%.4g; uninstrumented %.4g ops/s",
		len(tput), ld.N, 100*ld.TailQ, median(plainTput))
	return rep, nil
}
