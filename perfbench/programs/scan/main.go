// Command scan is the benchmark's sampling-rate workload: two worker
// goroutines read pseudo-random slots of one shared array in a closed
// loop and fold their sums into a mutex-guarded total every 1024 reads.
// Each worker times every tick reads as one latency sample, and repeats
// its reads repeat times; both workers start once, so a long repeat
// count measures the loop and not goroutine start-up.
//
// Input layout (uint64 words): reads per worker, repeat count, reads per
// latency sample (tick), the two workers' generator seeds, then the
// array itself. A warm-up pass reads every slot once before the timed
// section, so the shadow map of an instrumented build registers every
// address up front.
package main

import (
	"sync"
	"time"

	"pacer/perfbench/programs/progio"
)

// batch is the number of reads folded into the total at once.
const batch = 1024

var (
	mu    sync.Mutex
	total uint64
)

// atExit is set by stats.go in builds tagged pacerstats.
var atExit func()

func worker(data []uint64, seed uint64, reads, repeat, tick int, lat []int64, wg *sync.WaitGroup) {
	defer wg.Done()
	n := uint64(len(data))
	for r := 0; r < repeat; r++ {
		x := seed
		sum := uint64(0)
		t0 := time.Now()
		next := tick
		for i := 0; i < reads; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			sum += data[(x>>33)%n]
			if i%batch == batch-1 {
				mu.Lock()
				total += sum
				mu.Unlock()
				sum = 0
			}
			if i+1 == next {
				t1 := time.Now()
				lat[i/tick] = int64(t1.Sub(t0))
				t0 = t1
				next += tick
			}
		}
		mu.Lock()
		total += sum
		mu.Unlock()
	}
}

func main() {
	in := progio.Load()
	reads, repeat, tick := int(in[0]), int(in[1]), int(in[2])
	seed0, seed1 := in[3], in[4]
	data := in[5:]

	warm := uint64(0)
	for i := 0; i < len(data); i++ {
		warm += data[i]
	}

	lat0 := make([]int64, reads/tick)
	lat1 := make([]int64, reads/tick)
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(2)
	go worker(data, seed0, reads, repeat, tick, lat0, &wg)
	go worker(data, seed1, reads, repeat, tick, lat1, &wg)
	wg.Wait()
	elapsed := time.Since(start)
	sum := total / uint64(repeat) // every repeat adds the same sum

	out := progio.NewResult()
	out.Put("ops", uint64(2*reads*repeat))
	out.Put("elapsed_ns", uint64(elapsed))
	out.Put("warm", warm)
	out.Put("checksum", sum)
	out.Latencies(append(lat0, lat1...))
	out.Put("peak_rss_kb", progio.PeakRSSKB())
	out.Close()
	if atExit != nil {
		atExit()
	}
}
