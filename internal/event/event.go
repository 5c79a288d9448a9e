// Package event defines the action model of the paper's formal semantics
// (Appendix A): the operations a multithreaded program performs that are
// relevant to race detection, traces of such operations, a compact binary
// trace encoding, and generators of random well-formed traces for testing.
package event

import (
	"fmt"

	"pacer/internal/vclock"
)

// Kind enumerates the actions of Appendix A.
type Kind uint8

const (
	// Read is rd(t, x): thread t reads data variable x.
	Read Kind = iota
	// Write is wr(t, x): thread t writes data variable x.
	Write
	// Acquire is acq(t, m): thread t acquires lock m.
	Acquire
	// Release is rel(t, m): thread t releases lock m.
	Release
	// Fork is fork(t, u): thread t forks a new thread u.
	Fork
	// Join is join(t, u): thread t blocks until thread u terminates.
	Join
	// VolRead is vol_rd(t, vx): thread t reads volatile variable vx.
	VolRead
	// VolWrite is vol_wr(t, vx): thread t writes volatile variable vx.
	VolWrite
	// SampleBegin is sbegin(): the analysis enters a sampling period. It is
	// not initiated by any particular thread and adds no happens-before
	// edges.
	SampleBegin
	// SampleEnd is send(): the analysis leaves a sampling period.
	SampleEnd
	// Exit is exit(t): thread t terminates without being joined. It adds
	// no happens-before edges; it tells a detector that t performs no
	// further operations, so t's identifier may go to a later fork.
	Exit

	numKinds
)

var kindNames = [numKinds]string{
	"rd", "wr", "acq", "rel", "fork", "join", "vol_rd", "vol_wr", "sbegin", "send", "exit",
}

// String returns the paper's name for the action kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsSync reports whether the kind is a synchronization action.
func (k Kind) IsSync() bool {
	switch k {
	case Acquire, Release, Fork, Join, VolRead, VolWrite:
		return true
	}
	return false
}

// IsAccess reports whether the kind is a data-variable access.
func (k Kind) IsAccess() bool { return k == Read || k == Write }

// Var identifies a data variable (an object field, static field, or array
// element in the paper's Java setting).
type Var uint32

// Lock identifies a lock (in Java, any object used as a monitor).
type Lock uint32

// Volatile identifies a volatile variable.
type Volatile uint32

// Site identifies a static program location. Races are reported as pairs of
// sites, and distinct races are deduplicated by site pair (Section 5.1).
type Site uint32

// Event is one dynamic action. Fields beyond Kind and Thread are
// interpreted per kind:
//
//	Read/Write:    Target = Var, Site = program location, Method = enclosing
//	               method (used by LiteRace's per-method sampling)
//	Acquire/...:   Target = Lock
//	Fork/Join:     Target = the other thread u
//	VolRead/Write: Target = Volatile
//	Exit:          no fields beyond Thread
//	SampleBegin/End: no fields (Thread is ignored)
type Event struct {
	Kind   Kind
	Thread vclock.Thread
	Target uint32
	Site   Site
	Method uint32
}

// String renders the event in the paper's action notation.
func (e Event) String() string {
	switch e.Kind {
	case Read, Write:
		return fmt.Sprintf("%s(t%d, x%d)@s%d", e.Kind, e.Thread, e.Target, e.Site)
	case Acquire, Release:
		return fmt.Sprintf("%s(t%d, m%d)", e.Kind, e.Thread, e.Target)
	case Fork, Join:
		return fmt.Sprintf("%s(t%d, t%d)", e.Kind, e.Thread, e.Target)
	case VolRead, VolWrite:
		return fmt.Sprintf("%s(t%d, v%d)", e.Kind, e.Thread, e.Target)
	case Exit:
		return fmt.Sprintf("%s(t%d)", e.Kind, e.Thread)
	default:
		return fmt.Sprintf("%s()", e.Kind)
	}
}

// Trace is a sequence of events, ordered by execution.
type Trace []Event

// Threads returns one greater than the largest thread id appearing in the
// trace (including fork/join targets), i.e. the thread table size needed to
// replay it.
func (tr Trace) Threads() int {
	maxID := -1
	for _, e := range tr {
		if int(e.Thread) > maxID {
			maxID = int(e.Thread)
		}
		if e.Kind == Fork || e.Kind == Join {
			if int(e.Target) > maxID {
				maxID = int(e.Target)
			}
		}
	}
	return maxID + 1
}

// Counts tallies events by kind.
func (tr Trace) Counts() [numKinds]int {
	var c [numKinds]int
	for _, e := range tr {
		c[e.Kind]++
	}
	return c
}
