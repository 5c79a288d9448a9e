package shardbase

import (
	"testing"

	"pacer/internal/event"
	"pacer/internal/vclock"
)

func TestGeometryRoundsToPowerOfTwo(t *testing.T) {
	for _, c := range []struct{ requested, want int }{
		{-3, DefaultShards}, {0, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {65, 128},
	} {
		g := NewGeometry(c.requested)
		if g.Shards() != c.want {
			t.Errorf("NewGeometry(%d).Shards() = %d, want %d", c.requested, g.Shards(), c.want)
		}
		for x := event.Var(0); x < 4096; x++ {
			if s := g.ShardOf(x); s < 0 || s >= g.Shards() {
				t.Fatalf("NewGeometry(%d).ShardOf(%d) = %d, out of [0, %d)", c.requested, x, s, g.Shards())
			}
		}
		if s := g.ShardOf(^event.Var(0)); s < 0 || s >= g.Shards() {
			t.Errorf("NewGeometry(%d).ShardOf(max) = %d, out of range", c.requested, s)
		}
	}
}

func TestPresenceAddRemove(t *testing.T) {
	p := NewPresence()
	x := event.Var(7)
	if p.Possible(x) {
		t.Fatal("fresh filter reports metadata")
	}
	p.Add(x)
	p.Add(x)
	p.Remove(x)
	if !p.Possible(x) {
		t.Fatal("one of two adds removed: filter reports absence")
	}
	p.Remove(x)
	if p.Possible(x) {
		t.Fatal("every add removed: filter still reports metadata")
	}
}

// The no-metadata probe reads the word before and after the presence
// filter and trusts the flag only when the two reads agree, so every
// transition — including one back to the same flag — must change it.
func TestStatePublishChangesWordEveryTransition(t *testing.T) {
	var s State
	seen := map[uint64]bool{s.Word(): true}
	for i, sampling := range []bool{true, true, false, false, true, false} {
		s.Publish(sampling)
		w := s.Word()
		if seen[w] {
			t.Fatalf("transition %d republished word %#x", i, w)
		}
		seen[w] = true
		if (w&1 != 0) != sampling {
			t.Fatalf("transition %d: word %#x flag, want sampling=%v", i, w, sampling)
		}
	}
	s.SetAlwaysOn()
	if s.Word() != 1 {
		t.Errorf("SetAlwaysOn word = %#x, want 1", s.Word())
	}
}

func TestIndexCapRule(t *testing.T) {
	if got := NewIndex[int](0).Cap(); got != DefaultIndexCap {
		t.Errorf("cap 0 resolves to %d, want DefaultIndexCap", got)
	}
	off := NewIndex[int](-1)
	one := 1
	off.Publish(0, &one)
	if off.Cap() != 0 || off.Lookup(0) != nil {
		t.Error("negative cap: index not disabled")
	}

	ix := NewIndex[int](4096)
	vals := make([]int, 4096)
	for x := range vals {
		vals[x] = x
		ix.Publish(event.Var(x), &vals[x])
		// Growth must keep every earlier record.
		for y := 0; y <= x; y += 1 + x/8 {
			if r := ix.Lookup(event.Var(y)); r == nil || *r != y {
				t.Fatalf("after publishing %d: Lookup(%d) lost its record", x, y)
			}
		}
	}
	past := 0
	ix.Publish(4096, &past)
	ix.Publish(1<<20, &past)
	if ix.Lookup(4096) != nil || ix.Lookup(1<<20) != nil {
		t.Error("Publish past the cap indexed the variable")
	}
	if ix.Lookup(5000) != nil {
		t.Error("Lookup of an unpublished identifier returned a record")
	}
}

func TestThreadPubEpoch(t *testing.T) {
	var tp ThreadPub
	if tp.Epoch(0) != 0 || tp.Clock(0) != nil {
		t.Fatal("empty table publishes a thread")
	}
	tp.Ensure(2)
	if tp.Epoch(1) != 0 || tp.Epoch(5) != 0 {
		t.Fatal("unpublished or unknown thread has a nonzero epoch")
	}
	c := vclock.New(2)
	c.Set(1, 3)
	tp.Publish(1, c)
	if got, want := tp.Epoch(1), uint64(vclock.MakeEpoch(1, 3)); got != want {
		t.Errorf("Epoch(1) = %#x, want %#x", got, want)
	}
	if tp.Clock(1) != c {
		t.Error("Clock(1) is not the published clock")
	}
	tp.Publish(9, c) // unknown thread: a no-op
	if tp.Epoch(9) != 0 {
		t.Error("unknown thread gained an epoch")
	}
	tp.Ensure(16)
	if tp.Epoch(1) != uint64(vclock.MakeEpoch(1, 3)) || tp.Epoch(9) != 0 {
		t.Error("growth lost a published epoch or invented one")
	}
}
