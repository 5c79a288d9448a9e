package event

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"pacer/internal/vclock"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Read: "rd", Write: "wr", Acquire: "acq", Release: "rel",
		Fork: "fork", Join: "join", VolRead: "vol_rd", VolWrite: "vol_wr",
		SampleBegin: "sbegin", SampleEnd: "send", Exit: "exit",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestKindClassification(t *testing.T) {
	syncs := []Kind{Acquire, Release, Fork, Join, VolRead, VolWrite}
	for _, k := range syncs {
		if !k.IsSync() || k.IsAccess() {
			t.Errorf("%v misclassified", k)
		}
	}
	for _, k := range []Kind{Read, Write} {
		if k.IsSync() || !k.IsAccess() {
			t.Errorf("%v misclassified", k)
		}
	}
	for _, k := range []Kind{SampleBegin, SampleEnd, Exit} {
		if k.IsSync() || k.IsAccess() {
			t.Errorf("%v misclassified", k)
		}
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: Read, Thread: 1, Target: 2, Site: 3}, "rd(t1, x2)@s3"},
		{Event{Kind: Acquire, Thread: 0, Target: 7}, "acq(t0, m7)"},
		{Event{Kind: Fork, Thread: 0, Target: 1}, "fork(t0, t1)"},
		{Event{Kind: VolWrite, Thread: 2, Target: 0}, "vol_wr(t2, v0)"},
		{Event{Kind: SampleBegin}, "sbegin()"},
		{Event{Kind: Exit, Thread: 3}, "exit(t3)"},
	}
	for _, tc := range cases {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestTraceThreads(t *testing.T) {
	tr := Trace{
		{Kind: Write, Thread: 0, Target: 1},
		{Kind: Fork, Thread: 0, Target: 5},
		{Kind: Read, Thread: 2, Target: 1},
	}
	if n := tr.Threads(); n != 6 {
		t.Errorf("Threads() = %d, want 6", n)
	}
	if n := (Trace{}).Threads(); n != 0 {
		t.Errorf("empty Threads() = %d, want 0", n)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := Generate(Racy(6, 2000, 42))
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(got) != len(tr) {
		t.Fatalf("decoded %d events, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], tr[i])
		}
	}
}

func TestEncodeDecodeEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d events from empty trace", len(got))
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("NOTATRACE")); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	tr := Generate(Racy(3, 100, 7))
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadTrace(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated trace decoded without error")
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(seed int64, steps uint16) bool {
		tr := Generate(GenConfig{
			Threads: 4, Vars: 5, Locks: 2, Volatiles: 2,
			Steps: int(steps % 500), PGuarded: 0.3, PWrite: 0.5,
			PSample: 0.02, Seed: seed,
		})
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil || len(got) != len(tr) {
			return false
		}
		for i := range tr {
			if got[i] != tr[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// checkWellFormed verifies the feasibility rules of Appendix A on a trace.
func checkWellFormed(t *testing.T, tr Trace) {
	t.Helper()
	lockOwner := map[Lock]vclock.Thread{}
	started := map[vclock.Thread]bool{0: true}
	joined := map[vclock.Thread]bool{}
	lastAction := map[vclock.Thread]int{}
	joinIndex := map[vclock.Thread]int{}
	sampling := false
	for i, e := range tr {
		switch e.Kind {
		case SampleBegin:
			if sampling {
				t.Fatalf("event %d: nested sbegin", i)
			}
			sampling = true
			continue
		case SampleEnd:
			if !sampling {
				t.Fatalf("event %d: send without sbegin", i)
			}
			sampling = false
			continue
		}
		if !started[e.Thread] {
			t.Fatalf("event %d (%v): thread %d acts before being forked", i, e, e.Thread)
		}
		if joined[e.Thread] {
			t.Fatalf("event %d (%v): thread %d acts after being joined", i, e, e.Thread)
		}
		lastAction[e.Thread] = i
		switch e.Kind {
		case Acquire:
			m := Lock(e.Target)
			if owner, held := lockOwner[m]; held {
				t.Fatalf("event %d: lock %d acquired while held by t%d", i, m, owner)
			}
			lockOwner[m] = e.Thread
		case Release:
			m := Lock(e.Target)
			if owner, held := lockOwner[m]; !held || owner != e.Thread {
				t.Fatalf("event %d: release of lock %d not held by t%d", i, m, e.Thread)
			}
			delete(lockOwner, m)
		case Fork:
			u := vclock.Thread(e.Target)
			if started[u] {
				t.Fatalf("event %d: thread %d forked twice", i, u)
			}
			started[u] = true
		case Join:
			u := vclock.Thread(e.Target)
			if joined[u] {
				t.Fatalf("event %d: thread %d joined twice", i, u)
			}
			joined[u] = true
			joinIndex[u] = i
		}
	}
	for u, ji := range joinIndex {
		if la, ok := lastAction[u]; ok && la > ji {
			t.Fatalf("thread %d acted at %d after being joined at %d", u, la, ji)
		}
	}
}

func TestGenerateWellFormed(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr := Generate(GenConfig{
			Threads: 6, Vars: 8, Locks: 3, Volatiles: 2,
			Steps: 3000, PGuarded: 0.4, PWrite: 0.4, PSample: 0.01, Seed: seed,
		})
		checkWellFormed(t, tr)
	}
}

func TestGenerateSynchronizedWellFormed(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := Generate(Synchronized(5, 2000, seed))
		checkWellFormed(t, tr)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Racy(4, 1000, 99))
	b := Generate(Racy(4, 1000, 99))
	if len(a) != len(b) {
		t.Fatal("same seed, different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at event %d", i)
		}
	}
}

func TestGenerateProducesEventMix(t *testing.T) {
	tr := Generate(GenConfig{
		Threads: 6, Vars: 8, Locks: 3, Volatiles: 2,
		Steps: 20000, PGuarded: 0.4, PWrite: 0.4, PSample: 0.01, Seed: 5,
	})
	counts := tr.Counts()
	for _, k := range []Kind{Read, Write, Acquire, Release, Fork, Join, VolRead, VolWrite, SampleBegin} {
		if counts[k] == 0 {
			t.Errorf("generator never produced %v", k)
		}
	}
}

func TestGenerateStartSampling(t *testing.T) {
	tr := Generate(GenConfig{Threads: 2, Vars: 2, Steps: 10, StartSampling: true, Seed: 1})
	if len(tr) == 0 || tr[0].Kind != SampleBegin {
		t.Fatal("StartSampling did not emit a leading sbegin")
	}
}
