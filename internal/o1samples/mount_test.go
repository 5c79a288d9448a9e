package o1samples_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pacer"
	"pacer/internal/detector"
	"pacer/internal/dtest"
	"pacer/internal/event"
	"pacer/internal/o1samples"
)

// mountedRun drives the o1samples backend through the public front-end
// from several goroutines, with a trace sink attached, and returns the
// recorded linearization and the live reports.
func mountedRun(opts pacer.Options, seed int64) (event.Trace, []pacer.Race) {
	var (
		trace  event.Trace
		raceMu sync.Mutex
		races  []pacer.Race
		site   atomic.Uint32
	)
	opts.Algorithm = "o1samples"
	opts.PeriodOps = 64
	opts.Seed = seed
	opts.Shards = 8
	opts.OnRace = func(r pacer.Race) {
		raceMu.Lock()
		races = append(races, r)
		raceMu.Unlock()
	}
	opts.TraceSink = func(e pacer.Event) { trace = append(trace, e) }
	d := pacer.New(opts)
	main := d.NewThread()
	shared := make([]pacer.VarID, 8)
	for i := range shared {
		shared[i] = d.NewVarID()
	}
	mu := d.NewMutex()
	flag := pacer.NewAtomic(d, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		tid := d.Fork(main)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(g)))
			for i := 0; i < 600; i++ {
				s := pacer.SiteID(site.Add(1))
				v := shared[rng.Intn(len(shared))]
				switch r := rng.Intn(10); {
				case r < 4: // repeated reads: same-epoch fodder
					d.Read(tid, v, s)
				case r < 6:
					d.Write(tid, v, s)
				case r < 8:
					mu.Lock(tid)
					d.Write(tid, v, s)
					mu.Unlock(tid)
				case r < 9:
					flag.Store(tid, i)
				default:
					flag.Load(tid)
				}
			}
			d.Exit(tid)
		}(g)
	}
	wg.Wait()
	return trace, races
}

// TestDifferentialO1SamplesMounts: the sharded mounts (heap and
// arena, flat and tree clocks), with their lock-free dismissals, report
// exactly what a serialized o1samples detector reports when it replays
// the recorded linearization.
func TestDifferentialO1SamplesMounts(t *testing.T) {
	for _, mount := range []pacer.Options{
		{},
		{Arena: true},
		{Clock: "tree"},
		{Arena: true, Clock: "tree"},
	} {
		for _, rate := range []float64{1.0, 0.3} {
			for seed := int64(1); seed <= 3; seed++ {
				mount.SamplingRate = rate
				trace, races := mountedRun(mount, seed)
				ref := dtest.Run(trace, func(rep detector.Reporter) detector.Detector {
					return o1samples.New(rep)
				})
				got, want := dtest.KeySet(races), dtest.KeySet(ref.Dynamic)
				if len(got) != len(want) {
					t.Fatalf("%+v seed %d: live has %d distinct keys, serialized replay %d",
						mount, seed, len(got), len(want))
				}
				for k, n := range got {
					if want[k] != n {
						t.Fatalf("%+v seed %d: key %+v reported %d times live, %d in replay",
							mount, seed, k, n, want[k])
					}
				}
				if rate == 1.0 && len(races) == 0 {
					t.Fatalf("%+v seed %d: the race-prone workload reported nothing", mount, seed)
				}
			}
		}
	}
}
