package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
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

	// Goroutine churn: GoExit retires the child's thread and the next
	// GoSpawn revives its slot. One worker goroutine stands in for the
	// successive children (GoStart binds it afresh after each GoExit), so
	// a cycle allocates only the G handle GoSpawn passes to the child; the
	// revived slot's clocks allocate nothing.
	handles, done := make(chan *G), make(chan struct{})
	defer close(handles)
	go func() {
		for g := range handles {
			GoStart(g)
			GoExit()
			done <- struct{}{}
		}
	}()
	cycle := func() { handles <- GoSpawn(); <-done }
	for range 100 {
		cycle()
	}
	slots := D().Stats().ThreadSlots
	if avg := testing.AllocsPerRun(1000, cycle); avg > 1 {
		t.Errorf("GoSpawn/GoExit cycle allocates %.2f per call, want ≤ 1 (the G handle)", avg)
	}
	if got := D().Stats().ThreadSlots; got != slots {
		t.Errorf("GoSpawn/GoExit cycles grew the thread slots %d -> %d; exited slots are not revived", slots, got)
	}
}

// TestFrontDoorGoroutineChurnBounded: goroutines spawned one after
// another, at most two in flight, handing their work back through a
// semaphore channel the way kvserve's requests do. Every exited
// goroutine's slot is revived by a later spawn, so the detector's thread
// slots grow with the goroutines alive at once, not with those ever
// started, and metadata stops growing once the first thousand have run.
func TestFrontDoorGoroutineChurnBounded(t *testing.T) {
	const n, warm = 100_000, 1_000
	var mu sync.Mutex
	total := new(int)
	sem := make(chan struct{}, 2)
	mup := unsafe.Pointer(&mu)
	site := testSite(t)
	var live, peak atomic.Int32
	var drained sync.WaitGroup // plain: drains the last goroutines at the end
	slots0 := D().Stats().ThreadSlots
	warmWords := 0
	for i := range n {
		ChanSend(sem)
		sem <- struct{}{}
		ChanSendDone(sem)
		if i%warm == 0 {
			// Checked as the run goes, so a regression fails after a
			// thousand goroutines instead of building clocks whose total
			// size grows with the square of the goroutines started.
			st := D().Stats()
			if grown, bound := st.ThreadSlots-slots0, 4*int(peak.Load()); i > 0 && grown > bound {
				t.Fatalf("after %d goroutines, at most %d alive at once, the thread slots grew by %d; want ≤ %d",
					i, peak.Load(), grown, bound)
			}
			if i == warm {
				warmWords = st.MetadataWords
			}
		}
		if l := live.Add(1); l > peak.Load() {
			peak.Store(l) // only this goroutine raises the count
		}
		g := GoSpawn()
		drained.Add(1)
		go func() {
			GoStart(g)
			defer func() {
				GoExit()
				live.Add(-1)
				drained.Done()
			}()
			mu.Lock()
			LockAcquire(mup)
			*total++
			W(unsafe.Pointer(total), unsafe.Sizeof(*total), site)
			LockRelease(mup)
			mu.Unlock()
			ChanRecvPre(sem)
			<-sem
			ChanRecv(sem)
		}()
	}
	drained.Wait()
	st := D().Stats()
	if grown, bound := st.ThreadSlots-slots0, 4*int(peak.Load()); grown > bound {
		t.Errorf("%d goroutines, at most %d alive at once, grew the thread slots by %d; want ≤ %d",
			n, peak.Load(), grown, bound)
	}
	// After the first thousand, metadata may grow only by the slots the
	// churn may still add, each a clock and a version vector as wide as
	// the thread table, plus a constant: nothing per goroutine.
	slack := 2*4*int(peak.Load())*st.ThreadSlots + 1024
	if st.MetadataWords > warmWords+slack {
		t.Errorf("metadata %d words after %d goroutines, %d after %d; want within %d",
			st.MetadataWords, n, warmWords, warm, slack)
	}
	if *total != n {
		t.Fatalf("total %d, want %d", *total, n)
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
