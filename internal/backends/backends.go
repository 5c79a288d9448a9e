// Package backends mounts every race-detector implementation in the
// repository behind one constructor keyed by algorithm name, so the public
// front-end, the replay tooling, and the benchmarks all build detectors
// through a single registry instead of hard-wiring one package each.
//
// The registry is extensible: Register adds a backend (e.g. from a test or
// an out-of-tree analysis) and the public pacer.Options.Algorithm knob
// reaches anything registered here.
package backends

import (
	"fmt"
	"sort"
	"sync"

	"pacer/internal/core"
	"pacer/internal/detector"
	"pacer/internal/djit"
	"pacer/internal/fasttrack"
	"pacer/internal/generic"
	"pacer/internal/goldilocks"
	"pacer/internal/literace"
	"pacer/internal/lockset"
	"pacer/internal/o1samples"
)

// Config carries the backend-neutral construction knobs. Backends ignore
// the fields they have no use for.
type Config struct {
	// Seed drives any randomized behavior (LITERACE's burst resets).
	// 0 means the backend's own default.
	Seed int64
	// Shards is the variable-metadata shard count of sharded backends
	// (rounded up to a power of two; 0 selects the default).
	Shards int
	// Arena backs the metadata of arena-capable backends with a slab arena.
	Arena bool
	// Clock selects the timestamp representation of clock-aware backends
	// ("pacer", "fasttrack", "o1samples"): "" or "flat", or "tree".
	Clock string
	// DisableOwnedFastPath ablates the FASTTRACK backend's owned-access
	// (CAS read-map) fast path, leaving the epoch mirrors active.
	DisableOwnedFastPath bool
}

// Factory constructs one backend.
type Factory func(report detector.Reporter, cfg Config) detector.Detector

var (
	mu       sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a backend under name. It panics on a duplicate name, which
// would silently shadow an existing algorithm.
func Register(name string, f Factory) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backends: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New constructs the backend registered under name.
func New(name string, report detector.Reporter, cfg Config) (detector.Detector, error) {
	mu.RLock()
	f, ok := registry[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backends: unknown algorithm %q (known: %v)", name, Names())
	}
	return f(report, cfg), nil
}

// Known reports whether name is a registered algorithm.
func Known(name string) bool {
	mu.RLock()
	defer mu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("pacer", func(report detector.Reporter, cfg Config) detector.Detector {
		return core.NewWithOptions(report, core.Options{
			Shards: cfg.Shards,
			Arena:  cfg.Arena,
			Clock:  cfg.Clock,
		})
	})
	Register("fasttrack", func(report detector.Reporter, cfg Config) detector.Detector {
		return fasttrack.NewWithOptions(report, fasttrack.Options{
			Shards:               cfg.Shards,
			Arena:                cfg.Arena,
			DisableOwnedFastPath: cfg.DisableOwnedFastPath,
			Clock:                cfg.Clock,
		})
	})
	Register("generic", func(report detector.Reporter, _ Config) detector.Detector {
		return generic.New(report)
	})
	djitFactory := func(report detector.Reporter, cfg Config) detector.Detector {
		return djit.NewWithOptions(report, djit.Options{
			Shards: cfg.Shards,
			Arena:  cfg.Arena,
		})
	}
	Register("djit", djitFactory)
	Register("djit+", djitFactory) // the detector's own Name()
	Register("literace", func(report detector.Reporter, cfg Config) detector.Detector {
		o := literace.DefaultOptions()
		if cfg.Seed != 0 {
			o.Seed = cfg.Seed
		}
		o.Shards = cfg.Shards
		o.Arena = cfg.Arena
		return literace.New(report, o)
	})
	Register("o1samples", func(report detector.Reporter, cfg Config) detector.Detector {
		return o1samples.NewWithOptions(report, o1samples.Options{
			Shards: cfg.Shards,
			Arena:  cfg.Arena,
			Clock:  cfg.Clock,
		})
	})
	Register("goldilocks", func(report detector.Reporter, _ Config) detector.Detector {
		return goldilocks.New(report)
	})
	Register("lockset", func(report detector.Reporter, _ Config) detector.Detector {
		return lockset.New(report)
	})
}
