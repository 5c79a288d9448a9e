package o1samples

import (
	"testing"

	"pacer/internal/detector"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// meta returns x's record, or nil when x holds none.
func (d *Detector) meta(x event.Var) *varMeta { return d.lookupMeta(d.ShardOf(x), x) }

// TestO1SamplesMetadataCap: however many threads read a variable
// concurrently, its record stays six words; a vector-clock read map would
// grow a slot per reader.
func TestO1SamplesMetadataCap(t *testing.T) {
	const vars, readers = 16, 32
	d := New(nil)
	d.SampleBegin()
	for u := vclock.Thread(1); u <= readers; u++ {
		d.Fork(0, u)
	}
	for x := event.Var(0); x < vars; x++ {
		d.Write(0, x, 1, 0)
		for u := vclock.Thread(1); u <= readers; u++ {
			d.Read(u, x, 2, 0)
		}
	}
	if got := d.VarsTracked(); got != vars {
		t.Fatalf("VarsTracked = %d, want %d", got, vars)
	}
	if got, want := d.MetadataWords()-d.sync.MetadataWords(), 6*vars; got != want {
		t.Fatalf("variable metadata = %d words for %d variables read by %d threads, want %d",
			got, vars, readers, want)
	}
}

// TestO1SamplesEpochReplacement: a sampled read overwrites the single
// read slot, a sampled write overwrites the write epoch and clears the
// read slot, and an unsampled access checks without recording.
func TestO1SamplesEpochReplacement(t *testing.T) {
	col := detector.NewCollector()
	d := New(col.Report)
	d.Fork(0, 1)
	d.Fork(0, 2)
	d.Fork(0, 3)
	d.SampleBegin()
	const x = event.Var(7)
	d.Write(1, x, 10, 0)
	m := d.meta(x)
	if m == nil || m.w.Thread() != 1 || m.wSite != 10 || m.r != 0 {
		t.Fatalf("after a sampled write: %+v", m)
	}
	d.Read(2, x, 20, 0) // races with 1's write
	d.Read(3, x, 30, 0) // races with 1's write; replaces 2's read
	if m.r.Thread() != 3 || m.rSite != 30 {
		t.Fatalf("read slot names t%d at site %d, want t3 at 30", m.r.Thread(), m.rSite)
	}
	if col.DynamicCount() != 2 {
		t.Fatalf("%d reports after two racing reads, want 2: %v", col.DynamicCount(), col.Dynamic)
	}
	// A write concurrent with both reads reports against the last sampled
	// one only: the budget's trade against completeness.
	d.Write(0, x, 11, 0)
	var readRaces []event.Site
	for _, r := range col.Dynamic[2:] {
		if r.Kind == detector.ReadWrite {
			readRaces = append(readRaces, r.FirstSite)
		}
	}
	if col.DynamicCount() != 4 || len(readRaces) != 1 || readRaces[0] != 30 {
		t.Fatalf("write after the reads reported %v, want a write-write race and one read-write race against site 30", col.Dynamic[2:])
	}
	if m.w.Thread() != 0 || m.wSite != 11 || m.r != 0 {
		t.Fatalf("after the second sampled write: w=%v site %d, r=%v", m.w, m.wSite, m.r)
	}
	d.SampleEnd()
	w, site := m.w, m.wSite
	d.Read(2, x, 21, 0)  // checks: races with site 11
	d.Write(3, x, 31, 0) // checks: races with site 11; records nothing
	if m.w != w || m.wSite != site || m.r != 0 {
		t.Fatalf("unsampled accesses changed the record: w=%v site %d, r=%v", m.w, m.wSite, m.r)
	}
	if col.DynamicCount() != 6 {
		t.Fatalf("%d reports, want 6 (unsampled accesses still check): %v", col.DynamicCount(), col.Dynamic)
	}
	if d.meta(event.Var(8)) != nil {
		t.Fatal("record exists for a variable never accessed")
	}
	d.Write(1, 8, 40, 0)
	if d.meta(8) != nil {
		t.Fatal("an unsampled write created a record")
	}
}
