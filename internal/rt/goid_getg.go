//go:build amd64 || arm64

package rt

import (
	"sync"
	"unsafe"
)

// getg returns the running goroutine's runtime g (goid_$GOARCH.s).
func getg() unsafe.Pointer

// goid returns the calling goroutine's runtime id.
func goid() int64 {
	if off := goidOffset; off != 0 {
		return *(*int64)(unsafe.Add(getg(), off))
	}
	return stackGoid()
}

// goidProbeBytes bounds the probe's scan of g; the id sits within the
// first few hundred bytes in every Go release to date.
const goidProbeBytes = 512

// probeGoidOffset finds goid's byte offset in g: the first 8-byte
// aligned offset whose word equals the parsed stack-header id in each of
// three helper goroutines, all kept alive while their g's are read so
// none can be recycled under the probe. It returns 0 when no offset
// matches, which keeps goid on the stack parse.
func probeGoidOffset() uintptr {
	const helpers = 3
	var (
		gs      [helpers]unsafe.Pointer
		ids     [helpers]int64
		started sync.WaitGroup
	)
	release := make(chan struct{})
	defer close(release)
	started.Add(helpers)
	for i := range helpers {
		go func() {
			gs[i], ids[i] = getg(), stackGoid()
			started.Done()
			<-release
		}()
	}
	started.Wait()
	for off := uintptr(0); off < goidProbeBytes; off += 8 {
		if gWordsMatch(gs[:], ids[:], off) {
			return off
		}
	}
	return 0
}

// gWordsMatch reports whether the word at off equals ids[i] in every
// gs[i]. A failed probe can scan past the end of g into its heap
// neighbour, which is mapped memory but trips checkptr's same-object
// rule, hence nocheckptr.
//
//go:nocheckptr
func gWordsMatch(gs []unsafe.Pointer, ids []int64, off uintptr) bool {
	for i, gp := range gs {
		if *(*int64)(unsafe.Add(gp, off)) != ids[i] {
			return false
		}
	}
	return true
}
