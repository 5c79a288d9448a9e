// Command kvserve is the benchmark's server-shaped workload: it serves a
// fixed list of requests, each on a fresh goroutine, with at most two
// requests in flight (a channel semaphore gates the spawns and a
// WaitGroup collects them). The main goroutine admits each request and
// loads its key into a shared cache under the sync.RWMutex's write lock
// when the key is new; the request reads the cache under the read lock,
// renders its response in a fresh per-request heap buffer and bumps an
// atomic counter. One unsynchronized write, marked below, is a real data
// race that go build -race also reports. Only main writes the cache, so
// the hooks an instrumented build runs depend on the input alone.
//
// Input layout (uint64 words): repeat count, then the request keys. Each
// repeat starts from an empty cache, so every repeat does the same work.
package main

import (
	"sync"
	"sync/atomic"
	"time"

	"pacer/perfbench/programs/progio"
)

type entry struct {
	val uint64
}

var (
	cacheMu sync.RWMutex
	cache   map[uint64]*entry
	served  int64
	lastKey uint64
)

// atExit is set by stats.go in builds tagged pacerstats.
var atExit func()

func lookup(key uint64) *entry {
	cacheMu.RLock()
	e := cache[key]
	cacheMu.RUnlock()
	return e
}

// load makes sure key is cached. Only main calls it.
func load(key uint64) {
	if lookup(key) != nil {
		return
	}
	cacheMu.Lock()
	cache[key] = &entry{val: key*2654435761 + 1}
	cacheMu.Unlock()
}

// render builds the response for e in a fresh heap buffer.
func render(e *entry) uint64 {
	buf := make([]uint64, 8)
	x := e.val
	for i := 0; i < len(buf); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = x >> 11
	}
	v := uint64(0)
	for i := 0; i < len(buf); i++ {
		v = v*31 + buf[i]
	}
	return v
}

func handle(key uint64) uint64 {
	e := lookup(key)
	atomic.AddInt64(&served, 1)
	lastKey = key // planted race
	return render(e)
}

func serve(i int, key uint64, t0 time.Time, resp, lat []int64, sem chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	resp[i] = int64(handle(key))
	lat[i] = int64(time.Since(t0))
	<-sem
}

func main() {
	in := progio.Load()
	repeat := int(in[0])
	keys := in[1:]

	resp := make([]int64, len(keys))
	lat := make([]int64, len(keys))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < repeat; r++ {
		cacheMu.Lock()
		cache = make(map[uint64]*entry)
		cacheMu.Unlock()
		for i := 0; i < len(keys); i++ {
			sem <- struct{}{}
			t0 := time.Now()
			load(keys[i])
			wg.Add(1)
			go serve(i, keys[i], t0, resp, lat, sem, &wg)
		}
		wg.Wait()
	}
	elapsed := time.Since(start)

	sum := uint64(0)
	for i := 0; i < len(resp); i++ {
		sum = sum*1099511628211 + uint64(resp[i])
	}
	out := progio.NewResult()
	out.Put("ops", uint64(len(keys)*repeat))
	out.Put("elapsed_ns", uint64(elapsed))
	out.Put("checksum", sum)
	out.Latencies(lat)
	out.Put("peak_rss_kb", progio.PeakRSSKB())
	out.Close()
	if atExit != nil {
		atExit()
	}
}
