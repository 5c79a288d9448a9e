package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"pacer"
	"pacer/internal/detector"
	"pacer/internal/event"
	"pacer/internal/harness"
	"pacer/internal/oracle"
	"pacer/internal/vclock"
	"pacer/internal/workload"
	"pacer/perfbench/programs/progio"
)

// replayRate is the sampling rate of the replay workload.
const replayRate = 0.03

// replayPeriodOps is the replay detector's sampling period in
// operations: short enough that the hsqldb trace spans about 700 periods,
// so the share of sampled operations settles near r from seed to seed
// (at the 4096-op default it spans about 90, and whether two or five of
// them are sampled swings throughput and the latency tail).
const replayPeriodOps = 512

// replayOptions configures the replay detector.
func replayOptions() pacer.Options {
	opts := detectorOptions(replayRate)
	opts.PeriodOps = replayPeriodOps
	return opts
}

// replayChunk is how many events one latency sample covers: small
// enough that one pass holds over a thousand chunks, so the tail over
// chunk positions is a true p99.
const replayChunk = 256

// replayBaseWalks is how many times the no-detector baseline walks the
// trace after each detector pass.
const replayBaseWalks = 5

// replayOut is what the replay child reports.
type replayOut struct {
	Events   int
	Tput     []float64  // events/s of each pass through the detector
	BaseTput []float64  // events/s of the baseline right after each pass
	Lat      dist       // µs per event over chunk positions, each the median of its passes
	Races    [][]uint32 // per pass: distinct (var, siteA, siteB) triples, flattened
	RSSKB    int64
}

// runReplay measures the replay workload: set-up generates the trace of
// the paper's hsqldb model from the seed; the run replays it through the
// public pacer API from one goroutine.
func runReplay(cfg config) (*report, error) {
	rep := newReport()
	var tr event.Trace
	times, err := timeRounds(3, func() error {
		t, err := harness.RecordTrace(workload.Hsqldb(), cfg.seed)
		if err != nil {
			return err
		}
		if tr != nil && len(t) != len(tr) {
			return fmt.Errorf("trace generation is not deterministic: %d then %d events", len(tr), len(t))
		}
		tr = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(times))
	truth := oracle.Analyze(tr)

	if cfg.trace {
		return rep, traceReplay(rep, tr, truth)
	}

	path := filepath.Join(cfg.work, "replay.trace")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := event.WriteTrace(f, tr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	var out replayOut
	if err := runChild(nil, &out, "replay", path, strconv.FormatFloat(cfg.seconds, 'g', -1, 64)); err != nil {
		return nil, err
	}
	for i, races := range out.Races {
		ok := true
		for j := 0; j+2 < len(races); j += 3 {
			p := oracle.MakePair(event.Var(races[j]), event.Site(races[j+1]), event.Site(races[j+2]))
			if truth.Pairs[p] == 0 {
				rep.note("pass %d reported %s, which the oracle does not hold racy", i, p)
				ok = false
			}
		}
		rep.add(int64(out.Events), ok)
	}
	ops := median(out.Tput)
	rep.set("ops_per_s", ops)
	rep.set("slowdown_x", pairedSlowdown(out.BaseTput, out.Tput))
	rep.set("op_latency_p50_us", out.Lat.P50)
	rep.set("op_latency_p99_us", out.Lat.Tail)
	rep.set("peak_rss_mb", float64(out.RSSKB)/1024)
	rep.note("%d passes over %d events; latency over %d chunk positions of %d events, each the median of its passes, tail is p%.4g; %d oracle races",
		len(out.Tput), out.Events, out.Lat.N, replayChunk, 100*out.Lat.TailQ, len(truth.Pairs))
	return rep, nil
}

// nopDetector is the replay baseline: event dispatch with no analysis.
type nopDetector struct{}

func (nopDetector) Read(vclock.Thread, event.Var, event.Site, uint32)  {}
func (nopDetector) Write(vclock.Thread, event.Var, event.Site, uint32) {}
func (nopDetector) Acquire(vclock.Thread, event.Lock)                  {}
func (nopDetector) Release(vclock.Thread, event.Lock)                  {}
func (nopDetector) Fork(vclock.Thread, vclock.Thread)                  {}
func (nopDetector) Join(vclock.Thread, vclock.Thread)                  {}
func (nopDetector) VolRead(vclock.Thread, event.Volatile)              {}
func (nopDetector) VolWrite(vclock.Thread, event.Volatile)             {}
func (nopDetector) Name() string                                       { return "nop" }

// baseTput is the median throughput of a few no-detector walks over tr.
func baseTput(tr event.Trace) float64 {
	var nop detector.Detector = nopDetector{}
	xs := make([]float64, replayBaseWalks)
	for i := range xs {
		t0 := time.Now()
		for _, e := range tr {
			detector.Apply(nop, e)
		}
		xs[i] = float64(len(tr)) / time.Since(t0).Seconds()
	}
	return median(xs)
}

// childReplay replays a trace file for the given number of seconds, a
// fresh detector per pass.
func childReplay(args []string) (*replayOut, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("want <trace> <seconds>")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, err
	}
	tr, err := event.ReadTrace(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	seconds, err := strconv.ParseFloat(args[1], 64)
	if err != nil {
		return nil, err
	}
	// One P: the collector's work then runs on the replay's own CPU, so
	// a pass's time includes it whether or not the host lends this
	// process its second CPU.
	runtime.GOMAXPROCS(1)
	out := &replayOut{Events: len(tr)}
	var lats [][]float64 // per pass: µs per event of each chunk
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out.Tput) == 0 || time.Now().Before(deadline) {
		seen := map[oracle.Pair]bool{}
		opts := replayOptions()
		opts.OnRace = func(r pacer.Race) { seen[oracle.MakePair(r.Var, r.FirstSite, r.SecondSite)] = true }
		d := pacer.New(opts)
		runtime.GC() // each pass starts from a collected heap
		lat := make([]float64, 0, (len(tr)+replayChunk-1)/replayChunk)
		t0 := time.Now()
		for c := 0; c < len(tr); c += replayChunk {
			end := min(c+replayChunk, len(tr))
			tc := time.Now()
			for _, e := range tr[c:end] {
				d.Apply(e)
			}
			lat = append(lat, float64(time.Since(tc).Nanoseconds())/1e3/float64(end-c))
		}
		out.Tput = append(out.Tput, float64(len(tr))/time.Since(t0).Seconds())
		lats = append(lats, lat)
		var races []uint32
		for p := range seen {
			races = append(races, uint32(p.Var), uint32(p.SiteA), uint32(p.SiteB))
		}
		out.Races = append(out.Races, races)
		out.BaseTput = append(out.BaseTput, baseTput(tr))
	}
	out.Lat = summarize(positionMedians(lats))
	out.RSSKB = int64(progio.PeakRSSKB())
	if out.RSSKB == 0 {
		return nil, fmt.Errorf("no peak RSS in /proc/self/status")
	}
	return out, nil
}

// traceReplay is the traced run of the replay workload: passes 3 and 4
// of the ladder, on the trace's own events.
func traceReplay(rep *report, tr event.Trace, truth *oracle.Report) error {
	timer := timerCost()
	var races []pacer.Race
	fe, lin := frontendPasses(replayOptions(), timer, func(det *pacer.Detector, spans *callSpans) (sampled, calls int) {
		for _, e := range tr {
			calls++
			if spans == nil && det.Sampling() {
				sampled++
			}
			spans.time(e.Kind == event.Read || e.Kind == event.Write, func() { det.Apply(e) })
		}
		return sampled, calls
	})
	be, err := backendPass(lin, timer)
	if err != nil {
		return err
	}
	setLayers(rep, fe, be)
	setStats(rep, fe.stats)

	// The correctness gate on one untimed pass.
	opts := replayOptions()
	opts.OnRace = func(r pacer.Race) { races = append(races, r) }
	d := pacer.New(opts)
	for _, e := range tr {
		d.Apply(e)
	}
	ok := true
	for _, r := range races {
		if !truth.Holds(r) {
			rep.note("reported %s, which the oracle does not hold racy", r)
			ok = false
		}
	}
	rep.add(int64(len(tr)), ok)
	rep.note("replay: %d events, %d reports, sampled share %.4g at r=%g", len(tr), len(races), fe.sampled, replayRate)
	return nil
}
