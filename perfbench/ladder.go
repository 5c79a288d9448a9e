package main

// The traced ladder. A traced run replays a workload's op stream as a
// ladder of passes, each timing one span per call into one layer's
// public functions:
//
//  1. rt: the pacergo hooks (rt.R, rt.W, rt.LockAcquire, rt.GoSpawn, …)
//     issued from real goroutines in the order pacergo emits them for the
//     same input. This pass runs in a child process (rt's detector is
//     process-global), three times: timed, untimed (for the tracing
//     overhead) and recording the hook stream for the passes below.
//  2. shadow: rt.NewShadowMap Get/SetIfAbsent on the recorded addresses.
//  3. frontend: pacer.New(...) Read/Write/Acquire/… on the resolved IDs.
//  4. backend: backends.New("pacer", …) driven serialized with the
//     linearization the frontend's Options.TraceSink recorded in an
//     untimed pass (the sink serializes, so it never runs timed).
//
// A layer's self time is the difference between adjacent passes for the
// same op kind (see selfTime).

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"pacer"
	"pacer/internal/backends"
	"pacer/internal/detector"
	"pacer/internal/event"
	"pacer/internal/rt"
	"pacer/perfbench/programs/progio"
)

// hookKind is one rt hook.
type hookKind uint8

const (
	hR hookKind = iota
	hW
	hLockAcquire
	hLockRelease
	hRWLock
	hRWUnlock
	hRWRLock
	hRWRUnlock
	hWGDone
	hWGWait
	hChanSend
	hChanSendDone
	hChanRecvPre
	hChanRecv
	hAtomicRMW
	hSpawn
)

// hookOp is one recorded hook call. Addr is the data or sync object
// address; for hSpawn it is the spawned goroutine's number.
type hookOp struct {
	Kind uint8
	G    uint32 // issuing goroutine, numbered in spawn order (main is 0)
	Addr uint64
	Site int32
}

// Span kinds of the rt pass.
const (
	spanAccess = iota
	spanSync
	spanSpawn
	nSpanKinds
)

func spanOf(k hookKind) int {
	switch k {
	case hR, hW:
		return spanAccess
	case hSpawn:
		return spanSpawn
	}
	return spanSync
}

type passMode string

const (
	modeTimed   passMode = "timed"
	modeUntimed passMode = "untimed"
	modeRecord  passMode = "record"
)

// rtPass is one execution of a workload's hook stream through rt.
type rtPass struct {
	mode      passMode
	mu        sync.Mutex
	log       []hookOp
	spans     [nSpanKinds][]float64
	nextG     atomic.Uint32
	live      atomic.Int32
	peakLive  atomic.Int32
	maxThread atomic.Int64
	running   sync.WaitGroup
}

// probe is one goroutine's handle on the pass: the mirror code calls
// its methods exactly where pacergo inserts the rt hook of the same name.
type probe struct {
	pass  *rtPass
	g     uint32
	spans [nSpanKinds][]float64
}

func (p *probe) do(k hookKind, addr uintptr, site int, call func()) {
	switch p.pass.mode {
	case modeTimed:
		t0 := time.Now()
		call()
		p.spans[spanOf(k)] = append(p.spans[spanOf(k)], float64(time.Since(t0)))
	case modeRecord:
		p.pass.mu.Lock()
		p.pass.log = append(p.pass.log, hookOp{Kind: uint8(k), G: p.g, Addr: uint64(addr), Site: int32(site)})
		p.pass.mu.Unlock()
		call()
	default:
		call()
	}
}

func (p *probe) R(ptr unsafe.Pointer, size uintptr, site int) {
	p.do(hR, uintptr(ptr), site, func() { rt.R(ptr, size, site) })
}

func (p *probe) W(ptr unsafe.Pointer, size uintptr, site int) {
	p.do(hW, uintptr(ptr), site, func() { rt.W(ptr, size, site) })
}

func (p *probe) LockAcquire(ptr unsafe.Pointer) {
	p.do(hLockAcquire, uintptr(ptr), 0, func() { rt.LockAcquire(ptr) })
}

func (p *probe) LockRelease(ptr unsafe.Pointer) {
	p.do(hLockRelease, uintptr(ptr), 0, func() { rt.LockRelease(ptr) })
}

func (p *probe) RWLock(ptr unsafe.Pointer) {
	p.do(hRWLock, uintptr(ptr), 0, func() { rt.RWLock(ptr) })
}

func (p *probe) RWUnlock(ptr unsafe.Pointer) {
	p.do(hRWUnlock, uintptr(ptr), 0, func() { rt.RWUnlock(ptr) })
}

func (p *probe) RWRLock(ptr unsafe.Pointer) {
	p.do(hRWRLock, uintptr(ptr), 0, func() { rt.RWRLock(ptr) })
}

func (p *probe) RWRUnlock(ptr unsafe.Pointer) {
	p.do(hRWRUnlock, uintptr(ptr), 0, func() { rt.RWRUnlock(ptr) })
}

func (p *probe) WGDone(ptr unsafe.Pointer) {
	p.do(hWGDone, uintptr(ptr), 0, func() { rt.WGDone(ptr) })
}

func (p *probe) WGWait(ptr unsafe.Pointer) {
	p.do(hWGWait, uintptr(ptr), 0, func() { rt.WGWait(ptr) })
}

func (p *probe) AtomicRMW(ptr unsafe.Pointer) {
	p.do(hAtomicRMW, uintptr(ptr), 0, func() { rt.AtomicRMW(ptr) })
}

func chanAddr(ch any) uintptr { return reflect.ValueOf(ch).Pointer() }

func (p *probe) ChanSend(ch any) {
	p.do(hChanSend, chanAddr(ch), 0, func() { rt.ChanSend(ch) })
}

func (p *probe) ChanSendDone(ch any) {
	p.do(hChanSendDone, chanAddr(ch), 0, func() { rt.ChanSendDone(ch) })
}

func (p *probe) ChanRecvPre(ch any) {
	p.do(hChanRecvPre, chanAddr(ch), 0, func() { rt.ChanRecvPre(ch) })
}

func (p *probe) ChanRecv(ch any) {
	p.do(hChanRecv, chanAddr(ch), 0, func() { rt.ChanRecv(ch) })
}

// Go mirrors pacergo's rewrite of a go statement: GoSpawn in the parent,
// then GoStart and a deferred GoExit around the body in the child.
func (p *probe) Go(body func(c *probe)) {
	pass := p.pass
	child := pass.nextG.Add(1)
	var g *rt.G
	p.do(hSpawn, uintptr(child), 0, func() { g = rt.GoSpawn() })
	if t := int64(g.Thread()); t > pass.maxThread.Load() {
		pass.maxThread.Store(t) // only goroutine 0 spawns
	}
	pass.running.Add(1)
	go func() {
		c := &probe{pass: pass, g: child}
		rt.GoStart(g)
		pass.enter()
		defer func() {
			pass.live.Add(-1)
			rt.GoExit()
			c.flush()
			pass.running.Done()
		}()
		body(c)
	}()
}

func (pass *rtPass) enter() {
	n := pass.live.Add(1)
	for {
		peak := pass.peakLive.Load()
		if n <= peak || pass.peakLive.CompareAndSwap(peak, n) {
			return
		}
	}
}

func (p *probe) flush() {
	p.pass.mu.Lock()
	for k := range p.spans {
		p.pass.spans[k] = append(p.pass.spans[k], p.spans[k]...)
	}
	p.pass.mu.Unlock()
}

// rtPassOut is what an rt pass child reports.
type rtPassOut struct {
	Stats               pacer.Stats
	WallNS              float64
	Access, Sync, Spawn dist
	Threads, PeakLive   int
	TimerNS             float64
}

// timerCost is the median cost of an empty span, subtracted from every
// span so that layers measured in nanoseconds are not dominated by the
// clock reads around them.
func timerCost() float64 {
	xs := make([]float64, 20000)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return median(xs)
}

// net summarizes spans with the timer cost taken off each.
func net(xs []float64, timer float64) dist {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = max(x-timer, 0)
	}
	return summarize(out)
}

// childMain runs a child role: `rtpass <workload> <input> <mode> <log>`
// or `replay <trace> <seconds>`.
func childMain(args []string) {
	if len(args) == 0 {
		fatal("child: no role")
	}
	var out any
	var err error
	switch args[0] {
	case "rtpass":
		out, err = childRTPass(args[1:])
	case "replay":
		out, err = childReplay(args[1:])
	default:
		err = fmt.Errorf("unknown child role %q", args[0])
	}
	if err != nil {
		fatal("child %s: %v", args[0], err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fatal("%v", err)
	}
}

func childRTPass(args []string) (*rtPassOut, error) {
	if len(args) != 4 {
		return nil, fmt.Errorf("want <workload> <input> <mode> <log>")
	}
	w := programs[args[0]]
	if w == nil {
		return nil, fmt.Errorf("no rt pass for workload %q", args[0])
	}
	in, err := progio.Read(args[1])
	if err != nil {
		return nil, err
	}
	pass := &rtPass{mode: passMode(args[2])}
	out := &rtPassOut{}
	if pass.mode == modeTimed {
		out.TimerNS = timerCost()
	}
	main := &probe{pass: pass}
	pass.enter()
	t0 := time.Now()
	w.mirror(in, main)
	pass.running.Wait()
	out.WallNS = float64(time.Since(t0))
	main.flush()
	out.Stats = rt.D().Stats()
	out.Access = net(pass.spans[spanAccess], out.TimerNS)
	out.Sync = net(pass.spans[spanSync], out.TimerNS)
	out.Spawn = net(pass.spans[spanSpawn], out.TimerNS)
	out.Threads = int(pass.maxThread.Load()) + 1
	out.PeakLive = int(pass.peakLive.Load())
	if pass.mode == modeRecord {
		if err := writeLog(args[3], pass.log); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func writeLog(path string, log []hookOp) error {
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, log); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// runChild runs this binary in a child role and decodes its JSON output.
func runChild(env []string, out any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), procTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, append([]string{"child"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %v", args, err)
	}
	return json.Unmarshal(b, out)
}

func readLog(path string) ([]hookOp, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	size := binary.Size(hookOp{})
	ops := make([]hookOp, len(b)/size)
	if len(ops)*size != len(b) {
		return nil, fmt.Errorf("%s: truncated hook log", path)
	}
	return ops, binary.Read(bytes.NewReader(b), binary.LittleEndian, ops)
}

// shadowEnt is the pass-2 stand-in for rt's per-address entry.
type shadowEnt struct{ v int32 }

// shadowPass resolves every recorded data access's address through a
// fresh shadow map, one span per resolution. It returns each access's
// variable number (first-seen order), the number of variables, and the
// map's counters after the pass.
func shadowPass(log []hookOp, timer float64) (d dist, vars []int32, n int, st rt.ShadowMapStats) {
	m := rt.NewShadowMap[shadowEnt]()
	var spans []float64
	vars = make([]int32, len(log))
	for i, op := range log {
		if hookKind(op.Kind) != hR && hookKind(op.Kind) != hW {
			continue
		}
		addr := uintptr(op.Addr)
		t0 := time.Now()
		e := m.Get(addr)
		if e == nil {
			e = m.SetIfAbsent(addr, func() *shadowEnt { n++; return &shadowEnt{v: int32(n - 1)} })
		}
		spans = append(spans, float64(time.Since(t0)))
		vars[i] = e.v
	}
	return net(spans, timer), vars, n, m.Stats()
}

// syncIDs are the detector identifiers rt allocates for a sync object.
type syncIDs struct {
	lock   pacer.LockID
	v1, v2 pacer.VolatileID
}

// frontendOut is what a frontend or backend pass measured.
type frontendOut struct {
	access, sync dist
	sampled      float64 // share of detector calls made while Sampling()
	stats        pacer.Stats
	joins        [2]uint64 // backend pass: slow and fast joins
}

// callSpans times detector calls by kind; a nil receiver times nothing.
type callSpans struct{ access, sync []float64 }

func (c *callSpans) time(access bool, f func()) {
	if c == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	d := float64(time.Since(t0))
	if access {
		c.access = append(c.access, d)
	} else {
		c.sync = append(c.sync, d)
	}
}

// driveFrontend feeds a recorded hook stream to det the way rt would:
// the same detector calls per hook, the same identifier allocation. With
// spans set each detector call is one span; otherwise the pass counts
// how many calls ran while the detector was sampling.
func driveFrontend(det *pacer.Detector, log []hookOp, vars []int32, nvars int, spans *callSpans) (sampled, calls int) {
	varIDs := make([]pacer.VarID, nvars)
	for i := range varIDs {
		varIDs[i] = det.NewVarID()
	}
	threads := map[uint32]pacer.ThreadID{}
	thread := func(g uint32) pacer.ThreadID {
		t, ok := threads[g]
		if !ok {
			t = det.NewThread()
			threads[g] = t
		}
		return t
	}
	syncs := map[uint64]*syncIDs{}
	obj := func(op hookOp) *syncIDs {
		o := syncs[op.Addr]
		if o == nil {
			o = &syncIDs{}
			switch hookKind(op.Kind) {
			case hLockAcquire, hLockRelease:
				o.lock = det.NewLockID()
			case hRWLock, hRWUnlock, hRWRLock, hRWRUnlock:
				o.lock = det.NewLockID()
				o.v1, o.v2 = det.NewVolatileID(), det.NewVolatileID()
			case hChanSend, hChanSendDone, hChanRecvPre, hChanRecv:
				o.v1, o.v2 = det.NewVolatileID(), det.NewVolatileID()
			default:
				o.v1 = det.NewVolatileID()
			}
			syncs[op.Addr] = o
		}
		return o
	}
	call := func(access bool, f func()) {
		calls++
		if spans == nil && det.Sampling() {
			sampled++
		}
		spans.time(access, f)
	}
	for i, op := range log {
		t := thread(op.G)
		k := hookKind(op.Kind)
		site := pacer.SiteID(op.Site)
		switch k {
		case hR:
			v := varIDs[vars[i]]
			call(true, func() { det.Read(t, v, site) })
		case hW:
			v := varIDs[vars[i]]
			call(true, func() { det.Write(t, v, site) })
		case hSpawn:
			var c pacer.ThreadID
			call(false, func() { c = det.Fork(t) })
			threads[uint32(op.Addr)] = c
		default:
			o := obj(op)
			for _, f := range syncCalls(det, k, t, o) {
				call(false, f)
			}
		}
	}
	return sampled, calls
}

// syncCalls lists the detector calls rt makes for one sync hook, in
// rt's order.
func syncCalls(d *pacer.Detector, k hookKind, t pacer.ThreadID, o *syncIDs) []func() {
	acq := func() { d.Acquire(t, o.lock) }
	rel := func() { d.Release(t, o.lock) }
	rd1 := func() { d.VolRead(t, o.v1) }
	rd2 := func() { d.VolRead(t, o.v2) }
	wr1 := func() { d.VolWrite(t, o.v1) }
	wr2 := func() { d.VolWrite(t, o.v2) }
	switch k {
	case hLockAcquire:
		return []func(){acq}
	case hLockRelease:
		return []func(){rel}
	case hRWLock:
		return []func(){acq, rd2, rd1}
	case hRWUnlock:
		return []func(){wr1, rel}
	case hRWRLock:
		return []func(){rd1}
	case hRWRUnlock:
		return []func(){wr2}
	case hWGDone, hChanSend:
		return []func(){wr1}
	case hWGWait, hChanRecv:
		return []func(){rd1}
	case hChanSendDone:
		return []func(){rd2}
	case hChanRecvPre:
		return []func(){wr2}
	case hAtomicRMW:
		return []func(){rd1, wr1}
	}
	panic(fmt.Sprintf("unknown sync hook %d", k))
}

// detectorOptions mirrors rt's defaults at the given rate.
func detectorOptions(rate float64) pacer.Options {
	return pacer.Options{SamplingRate: rate, Seed: pacerSeed}
}

// frontendPasses runs pass 3 timed, then untimed with the trace sink
// recording the linearization pass 4 replays.
func frontendPasses(opts pacer.Options, timer float64, drive func(det *pacer.Detector, spans *callSpans) (int, int)) (*frontendOut, event.Trace) {
	spans := &callSpans{}
	det := pacer.New(opts)
	drive(det, spans)
	out := &frontendOut{
		access: net(spans.access, timer),
		sync:   net(spans.sync, timer),
		stats:  det.Stats(),
	}
	var lin event.Trace
	opts.TraceSink = func(e pacer.Event) { lin = append(lin, e) }
	sampled, calls := drive(pacer.New(opts), nil)
	out.sampled = ratio(float64(sampled), float64(calls))
	return out, lin
}

// backendPass replays a frontend linearization through a bare PACER
// backend, one span per event.
func backendPass(lin event.Trace, timer float64) (*frontendOut, error) {
	b, err := backends.New("pacer", func(detector.Race) {}, backends.Config{Seed: pacerSeed})
	if err != nil {
		return nil, err
	}
	spans := &callSpans{}
	for _, e := range lin {
		switch e.Kind {
		case event.SampleBegin, event.SampleEnd:
			detector.Apply(b, e)
		default:
			spans.time(e.Kind == event.Read || e.Kind == event.Write, func() { detector.Apply(b, e) })
		}
	}
	out := &frontendOut{access: net(spans.access, timer), sync: net(spans.sync, timer)}
	if c, ok := b.(detector.Counted); ok {
		st := c.Stats()
		out.joins = [2]uint64{st.SlowJoins[0] + st.SlowJoins[1], st.FastJoins[0] + st.FastJoins[1]}
	}
	return out, nil
}

// setLayers reports the frontend and backend pass metrics.
func setLayers(rep *report, fe, be *frontendOut) {
	rep.set("frontend.access_ns.p50", fe.access.P50)
	rep.set("frontend.access_ns.p99", fe.access.Tail)
	rep.set("frontend.sync_ns.p50", fe.sync.P50)
	rep.set("frontend.sync_ns.p99", fe.sync.Tail)
	rep.set("frontend.self_ns", selfTime(fe.access, be.access))
	rep.set("frontend.sampled_ratio", fe.sampled)
	rep.set("backend.access_ns.p50", be.access.P50)
	rep.set("backend.access_ns.p99", be.access.Tail)
	rep.set("backend.sync_ns.p50", be.sync.P50)
	rep.set("backend.sync_ns.p99", be.sync.Tail)
	rep.note("spans: frontend %d access (tail p%.4g) + %d sync; backend %d access + %d sync",
		fe.access.N, 100*fe.access.TailQ, fe.sync.N, be.access.N, be.sync.N)
	rep.note("joins slow/fast: frontend pass %d/%d, backend pass %d/%d",
		fe.stats.SlowJoins, fe.stats.FastJoins, be.joins[0], be.joins[1])
}

// setStats reports the counters a detector's Stats expose per layer.
func setStats(rep *report, st pacer.Stats) {
	rep.set("frontend.fastpath_ratio", ratio(float64(st.FastPathReads+st.FastPathWrites), float64(st.Reads+st.Writes)))
	rep.set("vclock.slow_joins_per_sync", ratio(float64(st.SlowJoins), float64(st.SyncOps)))
	rep.set("vclock.fast_join_ratio", ratio(float64(st.FastJoins), float64(st.FastJoins+st.SlowJoins)))
	rep.set("vclock.deep_copies_per_sync", ratio(float64(st.DeepCopies), float64(st.SyncOps)))
	rep.set("meta.words", float64(st.MetadataWords))
	rep.set("meta.vars_tracked", float64(st.VarsTracked))
}

// parity compares the counts that define an op stream.
func parity(a, b pacer.Stats) bool {
	return a.Reads == b.Reads && a.Writes == b.Writes && a.SyncOps == b.SyncOps
}

// traceProgram is the traced run of a program workload.
func traceProgram(cfg config, w *progWorkload, b builds, rep *report, instrPath, rate string, want *procOut, plain func() (float64, error)) error {
	prog, err := runProc(cfg, w, b.instr, instrPath, rate)
	if err != nil {
		return err
	}
	rep.add(int64(prog.vals["ops"]), checkExecution(rep, w, 0, prog, want))
	if prog.stats == nil {
		return fmt.Errorf("the instrumented build printed no detector counters")
	}
	st := *prog.stats
	ops := float64(prog.vals["ops"])

	// Pass 1, three ways.
	logPath := cfg.work + "/hooks.log"
	var passes [3]rtPassOut
	for i, mode := range []passMode{modeTimed, modeUntimed, modeRecord} {
		env := append([]string{rate, "PACER_SEED=" + strconv.Itoa(pacerSeed), "PACER_QUIET=1"}, w.env...)
		if err := runChild(env,
			&passes[i], "rtpass", w.name, instrPath, string(mode), logPath); err != nil {
			return err
		}
		if !parity(passes[i].Stats, st) {
			rep.fail("op-stream parity: %s rt pass did %d reads, %d writes, %d sync ops; the program did %d, %d, %d",
				mode, passes[i].Stats.Reads, passes[i].Stats.Writes, passes[i].Stats.SyncOps, st.Reads, st.Writes, st.SyncOps)
		}
	}
	timed, untimed := passes[0], passes[1]
	rep.note("op-stream parity: program and rt passes agree on %d reads, %d writes, %d sync ops",
		st.Reads, st.Writes, st.SyncOps)
	rep.set("rt.hook_calls_per_op", float64(st.Reads+st.Writes+st.SyncOps)/ops)
	rep.set("rt.access_ns.p50", timed.Access.P50)
	rep.set("rt.access_ns.p99", timed.Access.Tail)
	rep.set("rt.sync_ns.p50", timed.Sync.P50)
	rep.set("rt.sync_ns.p99", timed.Sync.Tail)
	rep.set("rt.spawn_ns.p50", timed.Spawn.P50)
	rep.set("rt.spawn_ns.p99", timed.Spawn.Tail)
	rep.set("rt.threads", float64(timed.Threads))
	rep.set("rt.peak_live_goroutines", float64(timed.PeakLive))
	rep.set("trace.overhead_x", timed.WallNS/untimed.WallNS)
	rep.set("shadow.hit_ratio", ratio(float64(st.ShadowHits), float64(st.ShadowHits+st.ShadowMisses)))
	rep.set("shadow.vars", float64(st.ShadowVars))
	setStats(rep, st)
	rep.note("rt pass: %d access spans (tail p%.4g), %d sync, %d spawn; timer cost %.0f ns subtracted",
		timed.Access.N, 100*timed.Access.TailQ, timed.Sync.N, timed.Spawn.N, timed.TimerNS)

	// Passes 2-4 on the recorded stream.
	log, err := readLog(logPath)
	if err != nil {
		return err
	}
	sh, vars, nvars, shst := shadowPass(log, timed.TimerNS)
	rep.note("shadow pass: %d hits, %d misses; the program's shadow map: %d hits, %d misses",
		shst.Hits, shst.Misses, st.ShadowHits, st.ShadowMisses)
	rep.set("shadow.get_ns.p50", sh.P50)
	rep.set("shadow.get_ns.p99", sh.Tail)
	fe, lin := frontendPasses(detectorOptions(w.rate), timed.TimerNS, func(det *pacer.Detector, spans *callSpans) (int, int) {
		return driveFrontend(det, log, vars, nvars, spans)
	})
	if !parity(fe.stats, st) {
		rep.fail("frontend pass did %d reads, %d writes, %d sync ops; the program did %d, %d, %d",
			fe.stats.Reads, fe.stats.Writes, fe.stats.SyncOps, st.Reads, st.Writes, st.SyncOps)
	}
	be, err := backendPass(lin, timed.TimerNS)
	if err != nil {
		return err
	}
	setLayers(rep, fe, be)
	rep.set("rt.identity_self_ns", selfTime(timed.Access, sh, fe.access))

	// Reference rows: the same binary at other rates, and go build -race.
	for _, r := range []string{"0", "0.01", "1"} {
		o, err := runProc(cfg, w, b.instr, instrPath, "PACER_RATE="+r)
		if err != nil {
			return err
		}
		rep.set("ref.ops_per_s.r"+r, o.opsPerSec())
	}
	race, err := runProc(cfg, w, b.race, instrPath, "GORACE=atexit_sleep_ms=0")
	if err != nil {
		return err
	}
	plainOps, err := plain()
	if err != nil {
		return err
	}
	rep.set("ref.race_slowdown_x", plainOps/race.opsPerSec())
	rep.note("go build -race reported a data race: %v", strings.Contains(race.stderr, "WARNING: DATA RACE"))
	return nil
}
