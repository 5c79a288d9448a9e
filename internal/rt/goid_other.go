//go:build !amd64 && !arm64

package rt

// goid returns the calling goroutine's runtime id. Without a getg stub
// for this architecture it is always the stack-header parse.
func goid() int64 { return stackGoid() }

// probeGoidOffset has no g to read here; goid stays on the parse.
func probeGoidOffset() uintptr { return 0 }
