package core

import (
	"testing"

	"pacer/internal/detector"
	"pacer/internal/vclock"
)

// A slot is offered only once its thread has terminated, by exit or by
// join, and only to a parent ordered after it; a revived slot is not
// offered again until it terminates again.
func TestReusableThreadRequiresTerminated(t *testing.T) {
	d := New(nil)
	d.Fork(0, 1)
	if _, ok := d.ReusableThread(0); ok {
		t.Fatal("live thread offered for reuse")
	}
	d.Join(0, 1)
	d.ThreadExit(1)
	u, ok := d.ReusableThread(0)
	if !ok || u != 1 {
		t.Fatalf("ReusableThread(0) after join = %v, %v; want 1, true", u, ok)
	}
	d.Fork(0, u)
	if _, ok := d.ReusableThread(0); ok {
		t.Fatal("revived slot offered again")
	}
	d.ThreadExit(u) // exit without a join: the child did nothing 0 cannot see
	if got, ok := d.ReusableThread(0); !ok || got != u {
		t.Fatalf("ReusableThread(0) after exit = %v, %v; want %d, true", got, ok, u)
	}
	if d.LiveThreads() != 1 || d.ThreadSlots() != 2 {
		t.Fatalf("live %d, slots %d; want 1, 2", d.LiveThreads(), d.ThreadSlots())
	}
}

// An exited thread's accesses must happen before the fork: a parent that
// never synchronized with the thread cannot take its slot, and one that
// acquired a lock the thread released can, although the release's
// trailing increment never reached it.
func TestReusableThreadRequiresParentOrderedAfterAccesses(t *testing.T) {
	d := New(nil)
	d.SampleBegin()
	d.Fork(0, 1)
	d.Write(1, 7, 100, 0)
	d.Acquire(1, 5)
	d.Release(1, 5)
	d.ThreadExit(1)
	if _, ok := d.ReusableThread(0); ok {
		t.Fatal("slot offered to a parent not ordered after its write")
	}
	d.Acquire(0, 5)
	if got := d.threads[0].clock.Get(1); got >= d.threads[1].clock.Get(1) {
		t.Fatalf("parent saw u's final time %d; the test needs the trailing increment unseen", got)
	}
	if u, ok := d.ReusableThread(0); !ok || u != 1 {
		t.Fatalf("ReusableThread(0) after the lock handoff = %v, %v; want 1, true", u, ok)
	}
}

// An exited thread that learned something its would-be parent does not
// know cannot hand its slot to that parent's child: the child would
// inherit happens-before edges a fresh thread lacks.
func TestReusableThreadRequiresParentKnowledge(t *testing.T) {
	d := New(nil)
	d.SampleBegin()
	d.Fork(0, 1)
	d.Fork(0, 2)
	d.Write(2, 9, 300, 0)
	d.Acquire(2, 6)
	d.Release(2, 6)
	d.Acquire(1, 5)
	d.Release(1, 5)
	d.Acquire(1, 6) // after its last release: 1 knows 2's write, 0 will not
	d.ThreadExit(1)
	d.Acquire(0, 5) // 0 is ordered after all of 1's accesses (it made none)
	if _, ok := d.ReusableThread(0); ok {
		t.Fatal("slot offered although it knows thread 2's history and the parent does not")
	}
	d.Acquire(0, 6)
	if u, ok := d.ReusableThread(0); !ok || u != 1 {
		t.Fatalf("ReusableThread(0) once 0 knows 2's history = %v, %v; want 1, true", u, ok)
	}
}

// A revived slot's clock is the parent's with the slot's own component
// at max(F[u], C_p[u]) + 1, so it dominates the dead thread's final clock.
func TestReviveClock(t *testing.T) {
	d := New(nil)
	d.SampleBegin()
	d.Fork(0, 1)
	d.Write(1, 7, 100, 0)
	d.Acquire(1, 5)
	d.Release(1, 5)
	d.ThreadExit(1)
	d.Acquire(0, 5)
	final := d.threads[1].clock.Clone()
	u, ok := d.ReusableThread(0)
	if !ok {
		t.Fatal("slot not reusable after the lock handoff")
	}
	d.Fork(0, u)
	parent, got := d.threads[0].clock, d.threads[u].clock
	if !final.Leq(got) {
		t.Fatalf("revived clock %v does not dominate the final clock %v", got, final)
	}
	if want := max(final.Get(u), parent.Get(u)) + 1; got.Get(u) != want {
		t.Fatalf("revived own component %d, want %d", got.Get(u), want)
	}
	if got.Get(0)+1 != parent.Get(0) {
		t.Fatalf("revived clock %v is not the fork-time parent clock (parent now %v)", got, parent)
	}
}

// Races involving a reused slot are attributed correctly: the new thread's
// epochs are strictly above the old thread's final time, so a third party
// that synchronized only with the old thread still races with the new one.
func TestReuseSoundness(t *testing.T) {
	col := detector.NewCollector()
	d := New(col.Report)
	d.SampleBegin()

	// Generation 1: thread 1 works and exits; threads 0 and 2 acquire its
	// release, so both are ordered after its write.
	d.Fork(0, 1)
	d.Fork(0, 2)
	d.Write(1, 7, 100, 0)
	d.Acquire(1, 5)
	d.Release(1, 5)
	d.ThreadExit(1)
	d.Acquire(2, 5)
	d.Read(2, 7, 110, 0) // ordered → no race
	d.Release(2, 5)
	if col.DynamicCount() != 0 {
		t.Fatalf("ordered access raced: %v", col.Dynamic)
	}
	d.Acquire(0, 5)
	d.Release(0, 5)

	u, ok := d.ReusableThread(0)
	if !ok || u != 1 {
		t.Fatalf("expected slot 1 reusable, got %v, %v", u, ok)
	}
	// Generation 2: a new thread reuses slot 1, forked by thread 0.
	d.Fork(0, u)
	d.Write(u, 8, 200, 0)
	// Thread 2 synchronized with the OLD occupant of slot 1 only; its
	// access to x8 must still race with the new occupant's write.
	d.Write(2, 8, 210, 0)
	if col.DynamicCount() != 1 {
		t.Fatalf("reused-slot race missed: %d reports (want 1)", col.DynamicCount())
	}
	last := col.Dynamic[len(col.Dynamic)-1]
	if last.FirstThread != u || last.FirstSite != 200 {
		t.Errorf("race misattributed: %v", last)
	}
	// The old occupant's x7 write stays ordered before the new occupant.
	d.Write(u, 7, 220, 0)
	if col.DynamicCount() != 1 {
		t.Errorf("new occupant raced with the old occupant's write: %v", col.Dynamic)
	}
}

// A lock whose version epoch names a dead incarnation still takes the
// rule-4 fast join correctly after the slot is revived: versions stay
// monotone across incarnations.
func TestReuseStaleVersionEpoch(t *testing.T) {
	col := detector.NewCollector()
	d := New(col.Report)
	d.SampleBegin()
	d.Fork(0, 1)
	d.Fork(0, 2)
	d.Write(1, 7, 100, 0)
	d.Acquire(1, 5)
	d.Release(1, 5) // lock 5's version epoch names incarnation 1 of slot 1
	d.Acquire(1, 6)
	d.Release(1, 6)
	d.ThreadExit(1)
	d.Acquire(0, 6)
	u, ok := d.ReusableThread(0)
	if !ok {
		t.Fatal("slot not reusable")
	}
	d.Fork(0, u)
	d.Acquire(u, 7)
	d.Release(u, 7) // publishes incarnation 2's newer version
	d.Acquire(2, 7) // 2 records slot 1's newer version
	d.Acquire(2, 5) // fast join on the stale epoch: must still order x7
	d.Write(2, 7, 210, 0)
	if col.DynamicCount() != 0 {
		t.Fatalf("stale version epoch lost the lock edge: %v", col.Dynamic)
	}
}

// With reuse, generations of fork/join keep the clock width bounded.
func TestReuseBoundsClockWidth(t *testing.T) {
	d := New(nil)
	for gen := 0; gen < 50; gen++ {
		u, ok := d.ReusableThread(0)
		if !ok {
			u = vclock.Thread(d.ThreadSlots())
		}
		d.Fork(0, u)
		d.Acquire(u, 1)
		d.Release(u, 1)
		d.Join(0, u)
		d.ThreadExit(u)
	}
	if d.ThreadSlots() > 4 {
		t.Errorf("thread slots = %d after 50 generations, want ≤ 4", d.ThreadSlots())
	}
}

// Reuse must not create false positives: a properly synchronized program
// over many generations stays silent, whether threads are joined or exit
// after handing their history off through a lock.
func TestReuseNoFalsePositives(t *testing.T) {
	col := detector.NewCollector()
	d := New(col.Report)
	d.SampleBegin()
	for gen := 0; gen < 30; gen++ {
		u, ok := d.ReusableThread(0)
		if !ok {
			u = vclock.Thread(d.ThreadSlots())
		}
		d.Fork(0, u)
		d.Acquire(u, 1)
		d.Read(u, 7, 10, 0)
		d.Write(u, 7, 11, 0)
		d.Release(u, 1)
		if gen%2 == 0 {
			d.Join(0, u)
			d.ThreadExit(u)
		} else {
			d.ThreadExit(u)
			d.Acquire(0, 1)
			d.Release(0, 1)
		}
	}
	if col.DynamicCount() != 0 {
		t.Fatalf("false positive across generations: %v", col.Dynamic[0])
	}
	if d.ThreadSlots() > 3 {
		t.Errorf("thread slots = %d after 30 generations, want ≤ 3", d.ThreadSlots())
	}
}
