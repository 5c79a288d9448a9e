package rt

import (
	"runtime"

	"pacer"
)

// Goroutine identity. The shim maps runtime goroutine ids onto detector
// ThreadIDs: a goroutine spawned by an instrumented `go` statement is
// forked from its parent (GoSpawn runs in the parent, so the fork
// happens-before edge is recorded at the real spawn point), while a
// goroutine the shim has never seen (main, or one created by
// uninstrumented code) registers lazily as a root thread with no inbound
// edge — conservative in the direction of reporting, since missing edges
// can only make accesses look concurrent.
//
// Every hook starts by asking which goroutine is running. On amd64 and
// arm64 goid reads the id straight out of the runtime's g: a tiny
// assembly stub returns the g pointer, and the field's byte offset is
// found once at Init by matching g words against the runtime.Stack
// header of three live helper goroutines, so no Go release's layout is
// baked in. That read costs about 2ns and allocates nothing. Where there
// is no stub, or the probe finds no matching offset, goid falls back to
// parsing the runtime.Stack header (stackGoid): correct everywhere, but
// 2-9µs per hook, serialized under the runtime's print lock.

// G is one instrumented goroutine's identity: the detector thread it
// operates as.
type G struct {
	t pacer.ThreadID
}

// Thread returns the detector thread this goroutine operates as.
func (g *G) Thread() pacer.ThreadID { return g.t }

// goroutines maps goroutine id → *G. Hooks hit it once per operation on
// the shadow map's lock-free path; binds and evictions are
// per-goroutine-lifetime events. Goroutine ids start at 1, so no id
// collides with the map's empty-slot key 0.
var goroutines = NewShadowMap[G]()

// goidOffset is goid's byte offset in the runtime g, or 0 when goid must
// parse the stack header instead (g begins with its stack bounds, so 0
// is never the real offset). Init sets it once, before any hook reads it.
var goidOffset uintptr

// stackGoid parses the current goroutine's id from the runtime.Stack
// header ("goroutine 123 [running]:").
func stackGoid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// len("goroutine ") == 10.
	id := int64(0)
	for _, c := range buf[10:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// current returns the calling goroutine's identity, registering it as a
// root thread on first sight.
func current() *G {
	id := uintptr(goid())
	if g := goroutines.Get(id); g != nil {
		return g
	}
	return goroutines.SetIfAbsent(id, func() *G { return &G{t: D().NewThread()} })
}

// GoSpawn runs in the parent goroutine at a `go` statement, immediately
// before the spawn: it forks a new detector thread from the parent, so
// everything the parent did up to the spawn happens-before the child.
// The returned handle is passed into the child, which binds it with
// GoStart.
func GoSpawn() *G {
	parent := current()
	return &G{t: D().Fork(parent.t)}
}

// GoStart runs first in a spawned goroutine, binding the handle GoSpawn
// made to the new goroutine's runtime identity.
func GoStart(g *G) {
	goroutines.SetIfAbsent(uintptr(goid()), func() *G { return g })
}

// GoExit runs (deferred) last in a spawned goroutine: it retires the
// goroutine's detector thread, so a later GoSpawn may reuse its slot once
// the spawning goroutine is ordered after everything this one did and
// knew, and releases the registry entry. The runtime never reuses a goroutine id,
// so the entry could never be hit again; evicting it keeps the registry
// bounded by live instrumented goroutines.
//
// Goroutines started by uninstrumented code never run GoExit: their
// lazily registered root threads are never retired.
func GoExit() {
	id := uintptr(goid())
	if g := goroutines.Get(id); g != nil {
		D().Exit(g.t)
	}
	goroutines.Evict(id)
}
