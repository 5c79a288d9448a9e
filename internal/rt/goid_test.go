package rt

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestFrontDoorGoidMatchesStackParse: the g read must name the same
// goroutine as the runtime.Stack header on goroutines started through the
// instrumented spawn protocol and on plain, uninstrumented ones.
func TestFrontDoorGoidMatchesStackParse(t *testing.T) {
	Init()
	if got, want := goid(), stackGoid(); got != want {
		t.Fatalf("test goroutine: goid %d, stack header %d", got, want)
	}
	const n = 1000
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		mismatches int
		first      [2]int64
	)
	check := func() {
		if got, want := goid(), stackGoid(); got != want {
			mu.Lock()
			if mismatches == 0 {
				first = [2]int64{got, want}
			}
			mismatches++
			mu.Unlock()
		}
	}
	wg.Add(n)
	for i := range n {
		if i%2 == 0 {
			g := GoSpawn()
			go func() {
				GoStart(g)
				defer wg.Done()
				defer GoExit()
				check()
			}()
		} else {
			go func() {
				defer wg.Done()
				check()
			}()
		}
	}
	wg.Wait()
	if mismatches != 0 {
		t.Fatalf("%d/%d goroutines: goid disagrees with the stack header (first: %d vs %d)",
			mismatches, n, first[0], first[1])
	}
}

// TestFrontDoorGoidProbeFound: where a getg stub exists the Init probe
// must find goid in g. A silent fall back to the stack parse keeps
// results correct but costs microseconds per hook, so it fails here.
func TestFrontDoorGoidProbeFound(t *testing.T) {
	Init()
	switch runtime.GOARCH {
	case "amd64", "arm64":
		if goidOffset == 0 {
			t.Fatalf("%s: probe found no goid offset in g (%s); hooks fall back to the stack parse",
				runtime.GOARCH, runtime.Version())
		}
		t.Logf("goid at g+%d (%s/%s)", goidOffset, runtime.Version(), runtime.GOARCH)
	default:
		if goidOffset != 0 {
			t.Fatalf("%s has no getg stub but goidOffset = %d", runtime.GOARCH, goidOffset)
		}
	}
}

// TestFrontDoorGoidRegistryDrains: every GoStart binding is evicted by its
// GoExit, so spawn/exit cycles leave the registry's live count where it
// started.
func TestFrontDoorGoidRegistryDrains(t *testing.T) {
	current() // the test goroutine's own lazy registration is not churn
	before := goroutines.Stats().Live
	const n = 1000
	for range n {
		g := GoSpawn()
		done := make(chan struct{})
		go func() {
			GoStart(g)
			defer close(done)
			defer GoExit()
			if current() != g {
				t.Error("spawned goroutine does not resolve to its GoSpawn handle")
			}
		}()
		<-done
	}
	if after := goroutines.Stats().Live; after != before {
		t.Fatalf("registry live %d after %d spawn/exit cycles, want %d", after, n, before)
	}
}

// TestFrontDoorHookZeroAlloc: with identity read from g, the hook hit
// path — identity, registry, shadow map, detector — allocates nothing.
// On the stack-parse fallback the runtime.Stack buffer escapes, so the
// guard only applies where the probe succeeded.
func TestFrontDoorHookZeroAlloc(t *testing.T) {
	Init()
	if goidOffset == 0 {
		t.Skip("goid falls back to the stack parse on this platform")
	}
	x := new(int)
	var mu sync.Mutex
	site := testSite(t)
	p, size, mp := unsafe.Pointer(x), unsafe.Sizeof(*x), unsafe.Pointer(&mu)
	for _, tc := range []struct {
		name string
		hook func()
	}{
		{"R", func() { R(p, size, site) }},
		{"W", func() { W(p, size, site) }},
		{"LockAcquire/LockRelease", func() { LockAcquire(mp); LockRelease(mp) }},
	} {
		for range 100 {
			tc.hook() // warm-up: registration, shadow insert, stack capture
		}
		if avg := testing.AllocsPerRun(1000, tc.hook); avg != 0 {
			t.Errorf("%s allocates %.2f per call, want 0", tc.name, avg)
		}
	}
}

// TestEnvFloatRejectsNonFinite: a PACER_RATE of NaN or ±Inf is malformed,
// like an unparsable one, and leaves the default in place.
func TestEnvFloatRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "Inf", "-Inf", "+inf", "bogus"} {
		t.Setenv("PACER_TEST_RATE", v)
		if got := envFloat("PACER_TEST_RATE", 0.5); got != 0.5 {
			t.Errorf("PACER_TEST_RATE=%s parsed as %v, want the default 0.5", v, got)
		}
	}
	t.Setenv("PACER_TEST_RATE", "0.25")
	if got := envFloat("PACER_TEST_RATE", 0.5); got != 0.25 {
		t.Errorf("PACER_TEST_RATE=0.25 parsed as %v", got)
	}
}
