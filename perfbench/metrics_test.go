package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Setenv("PACER_QUIET", "1") // the kvserve mirror's planted race is reported

	os.Exit(m.Run())
}

func TestTailIndexLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 0},       // one sample: the median
		{11, 5},      // nothing has ten beyond it: the median
		{21, 10},     // p52: the median and the highest with ten beyond coincide
		{100, 89},    // p90
		{500, 489},   // p98
		{1000, 989},  // p99, exactly ten beyond
		{5000, 4949}, // p99 caps the percentile
	} {
		got := tailIndex(tc.n)
		if got != tc.want {
			t.Errorf("tailIndex(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if beyond := tc.n - 1 - got; beyond < 10 && got != medianIndex(tc.n) {
			t.Errorf("tailIndex(%d) leaves %d samples beyond it", tc.n, beyond)
		}
	}
}

func TestSummarizeReportsTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	d := summarize(xs)
	if d.P50 != 500 || d.Tail != 990 || d.TailQ != 0.99 || d.N != 1000 || d.Mean != 500.5 {
		t.Fatalf("summarize = %+v", d)
	}
}

func TestPositionMediansDropOneRunsNoise(t *testing.T) {
	runs := [][]float64{
		{1, 2, 3, 4},
		{1, 90, 3, 4}, // a preemption in position 1 of one run
		{1, 2, 3, 4, 5},
	}
	got := positionMedians(runs)
	want := []float64{1, 2, 3, 4} // cut to the shortest run
	if len(got) != len(want) {
		t.Fatalf("positionMedians = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("positionMedians = %v, want %v", got, want)
		}
	}
	if positionMedians(nil) != nil {
		t.Fatal("positionMedians(nil) is not nil")
	}
}

func TestSelfTimeSubtractsMeans(t *testing.T) {
	outer := summarize([]float64{100, 200, 300})     // mean 200
	shadow := summarize([]float64{10, 10, 40})       // mean 20
	frontend := summarize([]float64{50, 50, 50, 50}) // mean 50
	if got := selfTime(outer, shadow, frontend); got != 130 {
		t.Fatalf("selfTime = %v, want 130", got)
	}
	if got := selfTime(frontend, outer); got != 0 {
		t.Fatalf("negative self time reads %v, want 0", got)
	}
}

func TestPairedSlowdownIsMedianOfRatios(t *testing.T) {
	got := pairedSlowdown([]float64{100, 300, 1000}, []float64{10, 10, 50})
	if got != 20 {
		t.Fatalf("pairedSlowdown = %v, want 20", got)
	}
}

// TestWrongVerdictFailsAllOps drives the correctness gate with synthetic
// executions: a wrong verdict fails all of that execution's ops, a wrong
// output also marks the run incorrect, and a right one fails nothing.
func TestWrongVerdictFailsAllOps(t *testing.T) {
	want := &procOut{vals: map[string]uint64{"ops": 1, "elapsed_ns": 1, "checksum": 42}}
	exec := func(checksum uint64, races ...raceSites) *procOut {
		return &procOut{vals: map[string]uint64{"ops": 500, "elapsed_ns": 9, "checksum": checksum}, races: races}
	}
	rep := newReport()
	rep.add(500, checkExecution(rep, scanWorkload, 0, exec(42), want))
	rep.add(500, checkExecution(rep, scanWorkload, 1, exec(42, raceSites{"write-write", "a:1", "a:1"}), want))
	if rep.attempted != 1000 || rep.failed != 500 || !rep.correct {
		t.Fatalf("after a false report: attempted %d failed %d correct %v", rep.attempted, rep.failed, rep.correct)
	}
	if got := errorRate(rep.failed, rep.attempted); got != 0.5 {
		t.Fatalf("error rate %v, want 0.5", got)
	}
	rep.add(500, checkExecution(rep, scanWorkload, 2, exec(7), want))
	if rep.failed != 1000 || rep.correct {
		t.Fatalf("after a wrong checksum: failed %d correct %v", rep.failed, rep.correct)
	}
}

func TestKVServeVerdictWantsExactlyThePlantedRace(t *testing.T) {
	planted, err := plantedSite()
	if err != nil {
		t.Fatal(err)
	}
	if err := kvWorkload.verdict([]raceSites{{"write-write", planted, planted}}); err != nil {
		t.Errorf("the planted race alone: %v", err)
	}
	if kvWorkload.verdict(nil) == nil {
		t.Error("a missed planted race passed the verdict")
	}
	if kvWorkload.verdict([]raceSites{{"write-write", planted, planted}, {"write-write", "x:1", "x:1"}}) == nil {
		t.Error("an extra report passed the verdict")
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the names, units and directions
// the benchmark prints to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(table string, defs []metricDef, got [][3]string) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", table, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if want := [3]string{d.name, d.unit, d.better}; got[i] != want {
				t.Errorf("%s[%d]: BENCHMARK.json says %v, the benchmark prints %v", table, i, got[i], want)
			}
		}
	}
	var e2e, layer [][3]string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, [3]string{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 || math.IsNaN(m.Bound) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, [3]string{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
}
