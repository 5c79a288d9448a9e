package main

// Mirrors of the workload programs for the traced rt pass. Each mirror
// does the program's work and calls the probe exactly where pacergo
// inserts an rt hook into the program (compare `pacergo -keep build`
// output); the op-stream parity check fails when the two drift apart.
// Package-level variables stand in for the program's package-level
// variables, so the hooks see the same kinds of addresses.

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"pacer/internal/rt"
)

var (
	scanMu     sync.Mutex
	scanTotal  uint64
	mirrorExit func()

	kvMu      sync.RWMutex
	kvCache   map[uint64]*kvEntry
	kvServed  int64
	kvLastKey uint64
)

type kvEntry struct{ val uint64 }

const scanBatch = 1024

// scanMirror mirrors programs/scan.
func scanMirror(in []uint64, p *probe) {
	site := rt.Site("perfbench:scan")
	p.R(unsafe.Pointer(&in[0]), 8, site)
	p.R(unsafe.Pointer(&in[1]), 8, site)
	p.R(unsafe.Pointer(&in[2]), 8, site)
	reads, repeat, tick := int(in[0]), int(in[1]), int(in[2])
	p.R(unsafe.Pointer(&in[3]), 8, site)
	p.R(unsafe.Pointer(&in[4]), 8, site)
	seed0, seed1 := in[3], in[4]
	data := in[5:]

	warm := uint64(0)
	for i := 0; i < len(data); i++ {
		p.R(unsafe.Pointer(&data[i]), 8, site)
		warm += data[i]
	}

	lat0 := make([]int64, reads/tick)
	lat1 := make([]int64, reads/tick)
	var wg sync.WaitGroup
	p.W(unsafe.Pointer(&wg), 16, site)
	wg.Add(2)
	p.Go(func(c *probe) { scanWorker(c, site, data, seed0, reads, repeat, tick, lat0, &wg) })
	p.Go(func(c *probe) { scanWorker(c, site, data, seed1, reads, repeat, tick, lat1, &wg) })
	wg.Wait()
	p.WGWait(unsafe.Pointer(&wg))
	p.R(unsafe.Pointer(&scanTotal), 8, site)
	sum := scanTotal / uint64(repeat)
	_ = sum + warm
	p.R(unsafe.Pointer(&mirrorExit), 8, site)
}

func scanWorker(p *probe, site int, data []uint64, seed uint64, reads, repeat, tick int, lat []int64, wg *sync.WaitGroup) {
	defer func() {
		p.WGDone(unsafe.Pointer(wg))
		wg.Done()
	}()
	n := uint64(len(data))
	fold := func(sum uint64) {
		scanMu.Lock()
		p.LockAcquire(unsafe.Pointer(&scanMu))
		p.R(unsafe.Pointer(&scanTotal), 8, site)
		scanTotal += sum
		p.W(unsafe.Pointer(&scanTotal), 8, site)
		p.LockRelease(unsafe.Pointer(&scanMu))
		scanMu.Unlock()
	}
	for r := 0; r < repeat; r++ {
		x := seed
		sum := uint64(0)
		t0 := time.Now()
		next := tick
		for i := 0; i < reads; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			p.R(unsafe.Pointer(&data[(x>>33)%n]), 8, site)
			sum += data[(x>>33)%n]
			if i%scanBatch == scanBatch-1 {
				fold(sum)
				sum = 0
			}
			if i+1 == next {
				t1 := time.Now()
				lat[i/tick] = int64(t1.Sub(t0))
				p.W(unsafe.Pointer(&lat[i/tick]), 8, site)
				t0 = t1
				next += tick
			}
		}
		fold(sum)
	}
}

// kvMirror mirrors programs/kvserve. The planted race's write is an
// atomic store here, so the benchmark itself stays race-free while the
// detector sees the same plain write hook.
func kvMirror(in []uint64, p *probe) {
	site := rt.Site("perfbench:kvserve")
	planted := rt.Site("perfbench:kvserve:planted")
	p.R(unsafe.Pointer(&in[0]), 8, site)
	repeat := int(in[0])
	keys := in[1:]

	resp := make([]int64, len(keys))
	lat := make([]int64, len(keys))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	p.W(unsafe.Pointer(&wg), 16, site)
	for r := 0; r < repeat; r++ {
		kvMu.Lock()
		p.RWLock(unsafe.Pointer(&kvMu))
		kvCache = make(map[uint64]*kvEntry)
		p.W(unsafe.Pointer(&kvCache), 8, site)
		p.RWUnlock(unsafe.Pointer(&kvMu))
		kvMu.Unlock()
		for i := 0; i < len(keys); i++ {
			p.ChanSend(sem)
			sem <- struct{}{}
			p.ChanSendDone(sem)
			t0 := time.Now()
			p.R(unsafe.Pointer(&keys[i]), 8, site)
			kvLoad(p, site, keys[i])
			wg.Add(1)
			p.R(unsafe.Pointer(&keys[i]), 8, site)
			i, key := i, keys[i]
			p.Go(func(c *probe) {
				defer func() {
					c.WGDone(unsafe.Pointer(&wg))
					wg.Done()
				}()
				resp[i] = int64(kvHandle(c, site, planted, key))
				c.W(unsafe.Pointer(&resp[i]), 8, site)
				lat[i] = int64(time.Since(t0))
				c.W(unsafe.Pointer(&lat[i]), 8, site)
				c.ChanRecvPre(sem)
				<-sem
				c.ChanRecv(sem)
			})
		}
		wg.Wait()
		p.WGWait(unsafe.Pointer(&wg))
	}
	sum := uint64(0)
	for i := 0; i < len(resp); i++ {
		p.R(unsafe.Pointer(&resp[i]), 8, site)
		sum = sum*1099511628211 + uint64(resp[i])
	}
	_ = sum
	p.R(unsafe.Pointer(&mirrorExit), 8, site)
}

func kvLookup(p *probe, site int, key uint64) *kvEntry {
	kvMu.RLock()
	p.RWRLock(unsafe.Pointer(&kvMu))
	p.R(unsafe.Pointer(&kvCache), 8, site)
	e := kvCache[key]
	p.RWRUnlock(unsafe.Pointer(&kvMu))
	kvMu.RUnlock()
	return e
}

func kvLoad(p *probe, site int, key uint64) {
	if kvLookup(p, site, key) != nil {
		return
	}
	kvMu.Lock()
	p.RWLock(unsafe.Pointer(&kvMu))
	kvCache[key] = &kvEntry{val: key*2654435761 + 1}
	p.W(unsafe.Pointer(&kvCache), 8, site)
	p.RWUnlock(unsafe.Pointer(&kvMu))
	kvMu.Unlock()
}

func kvRender(p *probe, site int, e *kvEntry) uint64 {
	buf := make([]uint64, 8)
	p.R(unsafe.Pointer(&e.val), 8, site)
	x := e.val
	for i := 0; i < len(buf); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = x >> 11
		p.W(unsafe.Pointer(&buf[i]), 8, site)
	}
	v := uint64(0)
	for i := 0; i < len(buf); i++ {
		p.R(unsafe.Pointer(&buf[i]), 8, site)
		v = v*31 + buf[i]
	}
	return v
}

func kvHandle(p *probe, site, planted int, key uint64) uint64 {
	e := kvLookup(p, site, key)
	atomic.AddInt64(&kvServed, 1)
	p.AtomicRMW(unsafe.Pointer(&kvServed))
	atomic.StoreUint64(&kvLastKey, key)
	p.W(unsafe.Pointer(&kvLastKey), 8, planted)
	return kvRender(p, site, e)
}
