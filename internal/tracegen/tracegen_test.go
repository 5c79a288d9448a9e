package tracegen_test

import (
	"bytes"
	"reflect"
	"testing"

	"pacer/internal/event"
	"pacer/internal/oracle"
	"pacer/internal/tracegen"
	"pacer/internal/vclock"
)

// TestGenerateWellFormed checks the feasibility invariants every generated
// trace must satisfy (Appendix A of the paper): locks are held by at most
// one thread and released only by their holder, threads act only after
// their fork, forked threads are fresh, joined and exited threads never
// act again, exited threads are never joined, and no lock is held at
// trace end.
func TestGenerateWellFormed(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		cfg := tracegen.CorpusConfig(seed / 2)
		cfg.Exits = seed%2 == 1
		tr := tracegen.Generate(cfg)
		if len(tr) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		owner := map[event.Lock]vclock.Thread{}
		started := map[vclock.Thread]bool{0: true}
		joined := map[vclock.Thread]bool{}
		exited := map[vclock.Thread]bool{}
		for i, e := range tr {
			if exited[e.Thread] {
				t.Fatalf("seed %d event %d: thread %d acts after its exit: %v", seed, i, e.Thread, e)
			}
			if !started[e.Thread] {
				t.Fatalf("seed %d event %d: thread %d acts before being forked: %v", seed, i, e.Thread, e)
			}
			if joined[e.Thread] {
				t.Fatalf("seed %d event %d: thread %d acts after being joined: %v", seed, i, e.Thread, e)
			}
			switch e.Kind {
			case event.Acquire:
				m := event.Lock(e.Target)
				if cur, held := owner[m]; held {
					t.Fatalf("seed %d event %d: thread %d acquires m%d already held by %d", seed, i, e.Thread, m, cur)
				}
				owner[m] = e.Thread
			case event.Release:
				m := event.Lock(e.Target)
				if cur, held := owner[m]; !held || cur != e.Thread {
					t.Fatalf("seed %d event %d: thread %d releases m%d it does not hold", seed, i, e.Thread, m)
				}
				delete(owner, m)
			case event.Fork:
				u := vclock.Thread(e.Target)
				if started[u] {
					t.Fatalf("seed %d event %d: thread %d forked twice", seed, i, u)
				}
				started[u] = true
			case event.Join:
				u := vclock.Thread(e.Target)
				if !started[u] {
					t.Fatalf("seed %d event %d: join of never-forked thread %d", seed, i, u)
				}
				if joined[u] {
					t.Fatalf("seed %d event %d: thread %d joined twice", seed, i, u)
				}
				if exited[u] {
					t.Fatalf("seed %d event %d: join of exited thread %d", seed, i, u)
				}
				joined[u] = true
			case event.Exit:
				if !cfg.Exits || e.Thread == 0 {
					t.Fatalf("seed %d event %d: unexpected %v", seed, i, e)
				}
				exited[e.Thread] = true
			}
		}
		if len(owner) != 0 {
			t.Fatalf("seed %d: locks still held at trace end: %v", seed, owner)
		}
	}
}

// TestGenerateDeterministic pins that identical configs produce identical
// traces — the property `racereplay verify -seed` depends on.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := tracegen.CorpusConfig(seed)
		a := tracegen.Generate(cfg)
		b := tracegen.Generate(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// TestShardClusterVars checks the collision property the cluster shapes
// rely on: every returned variable hashes to one 64-shard stripe under the
// sharded backends' Fibonacci hash.
func TestShardClusterVars(t *testing.T) {
	vars := tracegen.ShardClusterVars(8)
	if len(vars) != 8 {
		t.Fatalf("got %d vars, want 8", len(vars))
	}
	hash := func(v event.Var) int { return int((uint32(v) * 2654435761) >> (32 - 6)) }
	want := hash(vars[0])
	seen := map[event.Var]bool{}
	for _, v := range vars {
		if v < 1<<16 {
			t.Errorf("cluster var x%d aliases the plain variable pools", v)
		}
		if seen[v] {
			t.Errorf("cluster var x%d duplicated", v)
		}
		seen[v] = true
		if h := hash(v); h != want {
			t.Errorf("cluster var x%d hashes to shard %d, want %d", v, h, want)
		}
	}
}

// TestGenerateFullyGuardedIsRaceFree: with every data access under its
// variable's guard lock and no adversarial shapes enabled, the generated
// trace must be provably race-free — the oracle's negative direction.
func TestGenerateFullyGuardedIsRaceFree(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cfg := tracegen.Config{
			Seed: seed, Threads: 4, MaxForks: 8,
			Vars: 8, Locks: 2, Volatiles: 2,
			Steps: 400, PGuarded: 1.0, PWrite: 0.5, PBurst: 0.3,
		}
		rep := oracle.Analyze(tracegen.Generate(cfg))
		if len(rep.Pairs) != 0 {
			t.Fatalf("seed %d: fully guarded trace has ground-truth races: %v", seed, rep.SortedPairs())
		}
	}
}

// TestCorpusConfigCoverage: the generated sweep must actually contain
// races to make the precision checks meaningful, in a substantial fraction
// of traces.
func TestCorpusConfigCoverage(t *testing.T) {
	const n = 300
	racy := 0
	for seed := int64(0); seed < n; seed++ {
		rep := oracle.Analyze(tracegen.Generate(tracegen.CorpusConfig(seed)))
		if rep.DynamicRaces > 0 {
			racy++
		}
	}
	if racy < n/2 {
		t.Fatalf("only %d/%d generated traces contain races; the sweep is too tame", racy, n)
	}
	t.Logf("%d/%d generated traces contain ground-truth races", racy, n)
}

// TestScenariosLabeledCorrectly replays every ported scenario through the
// recording front-end and checks its Racy label against the oracle — the
// label is documentation, and documentation that disagrees with the ground
// truth is a bug in the scenario.
func TestScenariosLabeledCorrectly(t *testing.T) {
	names := map[string]bool{}
	for _, sc := range tracegen.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if names[sc.Name] {
				t.Fatalf("duplicate scenario name %q", sc.Name)
			}
			names[sc.Name] = true
			b, err := tracegen.RecordScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := event.ReadAnyTrace(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			rep := oracle.Analyze(tr)
			if got := len(rep.Pairs) > 0; got != sc.Racy {
				t.Fatalf("scenario labeled Racy=%v but oracle found %d racing pairs: %v",
					sc.Racy, len(rep.Pairs), rep.SortedPairs())
			}
		})
	}
	if len(names) < 40 {
		t.Fatalf("only %d scenarios; the ported slice should hold at least 40", len(names))
	}
}

// TestRecordScenarioDeterministic pins byte-stable recording — the
// property the checked-in corpus regeneration test depends on.
func TestRecordScenarioDeterministic(t *testing.T) {
	sc := tracegen.Scenarios()[0]
	a, err := tracegen.RecordScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tracegen.RecordScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two recordings of one scenario differ")
	}
}
