package core

import "pacer/internal/vclock"

// Thread identifier reuse, in the spirit of the accordion clocks the paper
// cites as the fix for its prototype's unbounded vector clock growth
// (Section 5.1: "Our prototype implementation does not reuse thread
// identifiers, so vector clock sizes are proportional to Total. A
// production implementation could use accordion clocks to reuse thread
// identifiers soundly").
//
// A thread terminates by exiting without a join, or by being joined; the
// caller reports either with ThreadExit (after the Join, in the second
// case). The slot u keeps its final clock F and joins a stack of
// candidates. A thread forked by parent p may take the slot over when
// both hold:
//
//  1. C_p[x] ≥ F[x] for every x ≠ u: p already knows everything u knew;
//  2. C_p[u] ≥ the own-time of u's last epoch-recording access (any
//     incarnation): every access of u happens before the fork. Comparing
//     with F[u] instead would be too strict, since the increment after u's
//     last release has no access behind it and p never sees it.
//
// Fork(p, u) then revives the slot with C_u = (F ⊔ C_p) and u's own
// component bumped to max(F[u], C_p[u]) + 1, and u's version vector kept
// (its entries are facts about F ⊑ C_u) with its own version bumped.
//
// Why no verdict changes. Condition 1 makes F ⊔ C_p differ from C_p only
// at u, so the new thread knows exactly what a fresh thread forked by p
// would know, plus u's timeline up to F[u]. By condition 2 that timeline
// holds no access beyond C_p[u], so every stale epoch c@u left in variable
// metadata is ordered before the new thread, as it would be before a fresh
// one. Component u stays a single timeline across incarnations: each
// incarnation starts strictly above every earlier access and with
// knowledge of all of them, so a clock whose u-entry is at least c knows
// every access of the slot at own-time ≤ c, whichever incarnation made it.
// Hence a third party that synchronized only with an old incarnation does
// not read as ordered after the new one, and the new thread's first epoch
// differs from every stale epoch, so the same-epoch rules never skip a
// check. Clocks and versions of the slot are monotone across the revival
// (F ⊑ C_u), so a lock or volatile whose version epoch names an old
// incarnation still satisfies Lemma 7, and the rule-4 fast join stays
// sound. No metadata has to be scanned or discarded first.
//
// Slots whose parent never synchronizes with them stay candidates but are
// never taken; they cost width, as every thread did before reuse. Probing
// is bounded: ReusableThread looks at the reuseProbe most recently
// terminated candidates only.

// reuseProbe bounds the candidates ReusableThread examines per fork, so a
// stack of candidates no parent can take costs a constant per fork.
const reuseProbe = 4

// ThreadExit marks thread t terminated (detector.ThreadLifecycle): its
// clock stops advancing at sampling-period starts and its slot becomes a
// reuse candidate. t issues no further operations under this identifier.
func (d *Detector) ThreadExit(t vclock.Thread) {
	tm := d.thread(t)
	if tm.exited {
		return
	}
	tm.exited = true
	d.live--
	d.exited = append(d.exited, t)
}

// ReusableThread returns a terminated thread's slot that a thread forked
// by parent may take over (the two conditions above), or reports false.
// Only the reuseProbe most recently terminated candidates are examined;
// the following Fork(parent, u) revives the slot.
func (d *Detector) ReusableThread(parent vclock.Thread) (vclock.Thread, bool) {
	cp := d.thread(parent).clock
	for i := len(d.exited) - 1; i >= 0 && i >= len(d.exited)-reuseProbe; i-- {
		u := d.exited[i]
		um := d.threads[u]
		if cp.Get(u) >= um.lastAccess && um.clock.LeqExcept(cp, u) {
			return u, true
		}
	}
	return vclock.NoThread, false
}

// revive takes u off the candidate stack when Fork targets a terminated
// slot, reporting whether it did.
func (d *Detector) revive(u vclock.Thread) bool {
	if int(u) >= len(d.threads) || d.threads[u] == nil || !d.threads[u].exited {
		return false
	}
	d.threads[u].exited = false
	d.live++
	for i := len(d.exited) - 1; i >= 0; i-- {
		if d.exited[i] == u {
			d.exited = append(d.exited[:i], d.exited[i+1:]...)
			break
		}
	}
	return true
}

// ThreadSlots returns the number of thread slots ever created — with
// reuse, the vector clock width.
func (d *Detector) ThreadSlots() int { return len(d.threads) }

// LiveThreads returns the number of created threads that have not
// terminated (detector.ThreadReuser).
func (d *Detector) LiveThreads() int { return d.live }
