package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// modDir is the benchmark's Go module, relative to the repository root.
const modDir = "perfbench"

// setupRounds is how many times a run repeats its set-up to report the
// median set-up time.
const setupRounds = 11

// timedBuildEnv is the environment added to the timed set-up builds: one
// P for pacergo, the go command and the tools they run, so set-up time
// does not follow whether the host lends the second vCPU. A busy loop on
// it added 40% to the median build with two Ps and 10% with one.
var timedBuildEnv = []string{"GOMAXPROCS=1"}

// goIn runs the go command inside the benchmark module and returns its
// combined output as the error text on failure.
func (b builds) goIn(args ...string) error {
	return b.runIn(exec.Command("go", args...))
}

func (b builds) runIn(cmd *exec.Cmd) error {
	cmd.Dir = modDir
	cmd.Env = append(os.Environ(), b.env...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %v\n%s", strings.Join(cmd.Args, " "), err, out.String())
	}
	return nil
}

// binPath is where a built binary lives, as an absolute path (the go
// command runs inside modDir).
func binPath(name string) string {
	p, err := filepath.Abs(filepath.Join(buildDir, "bin", name))
	if err != nil {
		panic(err)
	}
	return p
}

// builds are the binaries of one program workload.
type builds struct {
	pacergo, instr, plain, race string
	env                         []string // added to every build command's environment
}

func newBuilds(name string) builds {
	return builds{
		pacergo: binPath("pacergo"),
		instr:   binPath(name + "-pacergo"),
		plain:   binPath(name + "-plain"),
		race:    binPath(name + "-race"),
	}
}

// buildPacergo builds the rewriter from the repository's sources.
func (b builds) buildPacergo() error {
	return b.goIn("build", "-o", b.pacergo, "pacer/cmd/pacergo")
}

// buildInstr is the measured set-up step: pacergo instruments the
// program and builds it. The pacerstats tag makes the binary print the
// detector's counters at exit.
func (b builds) buildInstr(pkg string) error {
	return b.runIn(exec.Command(b.pacergo, "build", "-tags=pacerstats", "-o="+b.instr, pkg))
}

func (b builds) buildPlain(pkg string) error {
	return b.goIn("build", "-o", b.plain, pkg)
}

func (b builds) buildRace(pkg string) error {
	return b.goIn("build", "-race", "-o", b.race, pkg)
}

// timeRounds runs f n times and returns each duration in seconds.
func timeRounds(n int, f func() error) ([]float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return ts, nil
}
