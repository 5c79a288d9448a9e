package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"pacer"
)

// The wall-clock experiments measure the concurrent public API in this
// process on this hardware, unlike the simulator experiments: numbers vary
// across machines, the shapes should not. Each experiment is a list of
// slices of one matrix — a workload run at several levels (goroutines, or
// simulated threads) under several mounts (pacer.Options). A level's
// mounts run back to back, so thermal and load drift hit them roughly
// equally, and the rendered speedup is the last mount over the first.

// WallClock lists the wall-clock experiment names, in run order.
var WallClock = []string{"frontend", "arena", "fasttrack", "clocks", "contention"}

// Measure is one mount's measurement at one level.
type Measure struct {
	// OpsPerSec is aggregate operations per second.
	OpsPerSec float64
	// AllocsPerOp is heap allocations per operation during the measured
	// window (runtime Mallocs delta / total ops).
	AllocsPerOp float64
	// Stats is the detector's final counter snapshot.
	Stats pacer.Stats
}

// Mount is one detector configuration of a slice.
type Mount struct {
	Label string
	Opts  pacer.Options
}

// setup prepares one run on d — identifiers, threads, goroutine state,
// all outside the measured window — at the given level with ops
// operations per worker, and returns the measured body together with the
// number of operations it performs.
type setup func(d *pacer.Detector, level, ops int) (body func(), total int)

// Slice is one table of the wall-clock matrix: a workload at each level
// under each mount.
type Slice struct {
	Title string
	// Level labels the level column ("goroutines" or "threads").
	Level  string
	Levels []int
	// Ops is the per-worker operation count at scale 1.
	Ops    int
	Mounts []Mount
	run    setup
}

// SliceResult holds a slice's measurements: Rows[i][j] is Levels[i] under
// Mounts[j].
type SliceResult struct {
	Slice Slice
	Ops   int
	Rows  [][]Measure
}

// Slices returns the named wall-clock experiment's slices, or nil for an
// unknown name.
func Slices(experiment string) []Slice {
	goroutines := []int{1, 2, 4, 8}
	access := func(title string, m mix, mounts ...Mount) Slice {
		return Slice{Title: title, Level: "goroutines", Levels: goroutines, Ops: 200_000, Mounts: mounts, run: m.run}
	}
	deploy := func(algo string, serialized bool) pacer.Options {
		return pacer.Options{Algorithm: algo, SamplingRate: 0.01, PeriodOps: 4096, Seed: 11, Serialized: serialized}
	}
	ft := func(serialized, disableOwned bool) pacer.Options {
		return pacer.Options{Algorithm: "fasttrack", Seed: 11, Serialized: serialized, DisableOwnedFastPath: disableOwned}
	}
	switch experiment {
	case "frontend":
		// The lock-free non-sampling fast path against the single-mutex
		// front-end, then backends through the identical concurrent
		// front-end: always-on analyses pay for every access, which is
		// the proportionality argument measured live.
		return []Slice{
			access("PACER front-end scaling, r = 0.01", frontendMix,
				Mount{"serialized", deploy("pacer", true)}, Mount{"concurrent", deploy("pacer", false)}),
			access("Backends through the identical concurrent front-end, r = 0.01", frontendMix,
				Mount{"pacer", deploy("pacer", false)}, Mount{"fasttrack", deploy("fasttrack", false)}),
		}
	case "arena":
		// The metadata-churn regime the arena targets: a high rate and
		// short periods make every period transition clone and discard.
		// (Live runs: period boundaries, and so MetadataWords, differ by
		// scheduling; the differential suite proves identical analysis.)
		churn := func(arena bool) pacer.Options {
			return pacer.Options{SamplingRate: 0.20, PeriodOps: 256, Seed: 11, Arena: arena}
		}
		return []Slice{access("Metadata arena vs heap allocator, r = 0.20", arenaMix,
			Mount{"heap", churn(false)}, Mount{"arena", churn(true)})}
	case "fasttrack":
		// Always-on FASTTRACK sharded versus serialized: its dominant
		// same-epoch case is served lock-free through detector.EpochFast.
		return []Slice{access("Always-on FASTTRACK scaling", frontendMix,
			Mount{"serialized", deploy("fasttrack", true)}, Mount{"sharded", deploy("fasttrack", false)})}
	case "contention":
		// FASTTRACK where the same-epoch mirrors cannot help: serialized,
		// sharded with shard locks only, and sharded with the owned-access
		// CAS read-map updates.
		mounts := []Mount{{"serialized", ft(true, false)}, {"shard-lock", ft(false, true)}, {"sharded+CAS", ft(false, false)}}
		return []Slice{
			access("FASTTRACK contention, mix shared-read (shared read 1/1, lock op 1/512)", sharedReadMix, mounts...),
			access("FASTTRACK contention, mix sync-heavy (shared read 1/4, lock op 1/16)", syncHeavyMix, mounts...),
		}
	case "clocks":
		// Flat versus tree clocks on every Clock-aware backend, at growing
		// clock width with a fixed active set.
		workers := min(handoffActive, runtime.GOMAXPROCS(0))
		var out []Slice
		for _, algo := range []string{"pacer", "fasttrack", "o1samples"} {
			clock := func(c string) pacer.Options {
				return pacer.Options{Algorithm: algo, SamplingRate: 1, PeriodOps: 4096, Seed: 11, Clock: c}
			}
			out = append(out, Slice{
				Title: fmt.Sprintf("Clock representation head-to-head, %s, r = 1.00, %d active threads, %d workers",
					algo, handoffActive, workers),
				Level: "threads", Levels: []int{8, 64, 512}, Ops: 100_000,
				Mounts: []Mount{{"flat", clock("")}, {"tree", clock("tree")}},
				run:    handoff,
			})
		}
		return out
	}
	return nil
}

// Run measures every level under every mount with ops operations per
// worker.
func (s Slice) Run(ops int) *SliceResult {
	res := &SliceResult{Slice: s, Ops: ops}
	for _, level := range s.Levels {
		row := make([]Measure, len(s.Mounts))
		for j, m := range s.Mounts {
			row[j] = s.measure(m.Opts, level, ops)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// measure runs the workload once on a fresh detector. Setup happens before
// the measured window, so the Mallocs delta charges (almost) only the
// per-operation work; goroutine start-up is identical across mounts and
// ~zero per op at these operation counts.
func (s Slice) measure(opts pacer.Options, level, ops int) Measure {
	d := pacer.New(opts)
	body, total := s.run(d, level, ops)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	body()
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	n := float64(total)
	return Measure{
		OpsPerSec:   n / elapsed,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		Stats:       d.Stats(),
	}
}

// Render prints op/s and alloc/op for each mount, the last mount's
// speedup over the first, and the last mount's metadata words and arena
// recycle/miss split.
func (r *SliceResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%s (real wall clock, %d ops/worker)\n", r.Slice.Title, r.Ops)
	fmt.Fprintf(w, "%-11s", r.Slice.Level)
	width := 11
	for _, m := range r.Slice.Mounts {
		fmt.Fprintf(w, "  %*s  %*s", colWidth(m), m.Label+" op/s", colWidth(m), m.Label+" alloc/op")
		width += 4 + 2*colWidth(m)
	}
	fmt.Fprintf(w, "  %8s  %10s  %14s\n", "speedup", "meta words", "recycle/miss")
	rule(w, width+38)
	for i, row := range r.Rows {
		fmt.Fprintf(w, "%-11d", r.Slice.Levels[i])
		for j, m := range row {
			cw := colWidth(r.Slice.Mounts[j])
			fmt.Fprintf(w, "  %*.3e  %*.4f", cw, m.OpsPerSec, cw, m.AllocsPerOp)
		}
		last := row[len(row)-1]
		fmt.Fprintf(w, "  %7.2fx  %10d  %14s\n", last.OpsPerSec/row[0].OpsPerSec,
			last.Stats.MetadataWords, fmt.Sprintf("%d/%d", last.Stats.ArenaRecycles, last.Stats.ArenaMisses))
	}
	fmt.Fprintln(w)
}

func colWidth(m Mount) int { return max(len(m.Label)+len(" alloc/op"), 12) }

// opKind is one access-mix operation.
type opKind uint8

const (
	readPrivate opKind = iota
	writePrivate
	readShared
	lockedWrite // acquire the mix's mutex, write a shared variable, release
)

// mix is an access-mix workload: each goroutine owns private variables;
// all goroutines share another set and one mutex. step picks goroutine
// g's i-th operation and the index of the variable it targets.
type mix struct {
	shared, private int
	// site is added to each goroutine's site base g*1000.
	site int
	step func(g, i int) (opKind, int)
}

var (
	// frontendMix: mostly private accesses, one in 16 reads a shared
	// variable, one in 512 is a lock-guarded shared write.
	frontendMix = mix{shared: 4, private: 8, step: func(g, i int) (opKind, int) {
		switch {
		case i%512 == 511:
			return lockedWrite, g % 4
		case i%16 == 0:
			return readShared, i % 4
		case i%4 == 0:
			return writePrivate, i % 8
		}
		return readPrivate, i % 8
	}}
	// arenaMix churns metadata: writes rotate over a 128-variable window,
	// so each sampled period re-creates records the following non-sampled
	// writes discard; cross-thread shared reads inflate read maps; lock
	// traffic makes shallow copies and clones.
	arenaMix = mix{shared: 8, private: 128, site: 1, step: func(g, i int) (opKind, int) {
		switch {
		case i%256 == 255:
			return lockedWrite, g % 8
		case i%16 == 0:
			return readShared, i % 8
		case i%3 != 0:
			return writePrivate, i % 128
		}
		return readPrivate, i % 128
	}}
	// sharedReadMix routes every access at eight variables shared by all
	// goroutines, whose multi-entry read maps publish no epoch mirror;
	// the lock-guarded write targets a ninth shared variable.
	sharedReadMix = mix{shared: 9, private: 8, step: func(g, i int) (opKind, int) {
		if i%512 == 0 {
			return lockedWrite, 8
		}
		return readShared, i % 8
	}}
	// syncHeavyMix makes one op in 16 a lock operation (an exclusive
	// epoch-lock hold plus a thread-epoch republication) between shared
	// and private reads.
	syncHeavyMix = mix{shared: 9, private: 8, step: func(g, i int) (opKind, int) {
		switch {
		case i%16 == 0:
			return lockedWrite, 8
		case i%4 == 0:
			return readShared, i % 8
		}
		return readPrivate, i % 8
	}}
)

func (m mix) run(d *pacer.Detector, goroutines, ops int) (func(), int) {
	main := d.NewThread()
	shared := make([]pacer.VarID, m.shared)
	for i := range shared {
		shared[i] = d.NewVarID()
	}
	mu := d.NewMutex()
	workers := make([]pacer.ThreadID, goroutines)
	privates := make([][]pacer.VarID, goroutines)
	for g := range workers {
		workers[g] = d.Fork(main)
		privates[g] = make([]pacer.VarID, m.private)
		for i := range privates[g] {
			privates[g][i] = d.NewVarID()
		}
	}
	var wg sync.WaitGroup
	return func() {
		for g, tid := range workers {
			wg.Add(1)
			go func(g int, tid pacer.ThreadID) {
				defer wg.Done()
				private := privates[g]
				site := pacer.SiteID(g*1000 + m.site)
				for i := 0; i < ops; i++ {
					switch op, x := m.step(g, i); op {
					case lockedWrite:
						mu.Lock(tid)
						d.Write(tid, shared[x], site)
						mu.Unlock(tid)
					case readShared:
						d.Read(tid, shared[x], site)
					case writePrivate:
						d.Write(tid, private[x], site)
					default:
						d.Read(tid, private[x], site)
					}
				}
			}(g, tid)
		}
		wg.Wait()
	}, goroutines * ops
}

// handoffActive is the clocks workload's active set: the simulated threads
// that synchronize, and the cap on its workers.
const handoffActive = 8

// handoff is the workload tree clocks exist for: a thread pool whose
// clocks are all threads wide while only a small active set synchronizes.
// Each active thread mostly reacquires its own mutex and every fourth op
// hands off to its neighbor, so each sync op changes a handful of entries:
// flat clocks still pay O(threads) per join and release copy, the tree's
// last-update index walks only what changed, and the gap grows with the
// width while the active set and the real parallelism stay fixed.
func handoff(d *pacer.Detector, threads, ops int) (func(), int) {
	active := min(handoffActive, threads)
	main := d.NewThread()
	workers := make([]pacer.ThreadID, threads)
	for i := range workers {
		workers[i] = d.Fork(main)
	}
	own := make([]*pacer.Mutex, active)
	guarded := make([]pacer.VarID, active)
	for i := range own {
		own[i] = d.NewMutex()
		guarded[i] = d.NewVarID()
	}
	// Warm-up: two barrier rounds through one mutex leave every clock at
	// full width, so the window compares the representations at stable
	// width instead of measuring growth reallocation.
	bar := d.NewMutex()
	for r := 0; r < 2; r++ {
		for _, tid := range workers {
			bar.Lock(tid)
			bar.Unlock(tid)
		}
	}
	goroutines := min(handoffActive, runtime.GOMAXPROCS(0), active)
	var wg sync.WaitGroup
	return func() {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				site := pacer.SiteID(g * 1000)
				// Each worker round-robins its share of the active threads.
				for i := 0; i < ops; i++ {
					th := g + (i%((active+goroutines-1)/goroutines))*goroutines
					if th >= active {
						th = g
					}
					tid := workers[th]
					m := th
					if i%4 == 0 {
						m = (th + 1) % active // neighbor handoff
					}
					own[m].Lock(tid)
					d.Write(tid, guarded[m], site)
					own[m].Unlock(tid)
				}
			}(g)
		}
		wg.Wait()
	}, goroutines * ops
}
