// Package progio is the input and output plumbing of the benchmark's
// workload programs. It lives in its own package so that pacergo, which
// instruments only the packages it is asked to build, leaves it alone:
// the instrumented op stream is the workload kernel and nothing else.
//
// An input file is a flat little-endian array of uint64 words; each
// program documents its own layout.
package progio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Load reads the input file named by the program's only argument.
func Load() []uint64 {
	if len(os.Args) != 2 {
		fmt.Fprintf(os.Stderr, "usage: %s <input file>\n", os.Args[0])
		os.Exit(2)
	}
	w, err := Read(os.Args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "reading input: %v\n", err)
		os.Exit(2)
	}
	return w
}

// Read reads an input file.
func Read(path string) ([]uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%s: size %d is not a whole number of words", path, len(b))
	}
	w := make([]uint64, len(b)/8)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return w, nil
}

// Write stores words as an input file.
func Write(path string, words []uint64) error {
	b := make([]byte, 8*len(words))
	for i, x := range words {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
	return os.WriteFile(path, b, 0o644)
}

// PeakRSSKB returns this process's peak resident set in KiB: VmHWM in
// /proc/self/status, or 0 where that is not available. The parent's
// wait4 rusage is no substitute: a child forked by vfork counts the
// parent's resident set into its ru_maxrss across exec.
func PeakRSSKB() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				v, _ := strconv.ParseUint(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// Result prints the program's output: one "key value" line per scalar,
// then one "lat" line holding every latency sample in nanoseconds.
type Result struct {
	w *bufio.Writer
}

// NewResult starts the output.
func NewResult() *Result { return &Result{w: bufio.NewWriter(os.Stdout)} }

// Put prints one scalar.
func (r *Result) Put(key string, v uint64) {
	fmt.Fprintf(r.w, "%s %d\n", key, v)
}

// Latencies prints the latency samples.
func (r *Result) Latencies(ns []int64) {
	r.w.WriteString("lat")
	for _, x := range ns {
		r.w.WriteByte(' ')
		r.w.WriteString(strconv.FormatInt(x, 10))
	}
	r.w.WriteByte('\n')
}

// Close flushes the output.
func (r *Result) Close() { r.w.Flush() }
