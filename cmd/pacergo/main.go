// Command pacergo is the front door for running PACER on real Go
// programs: it instruments packages with detector hooks at the AST level
// and drives the standard go tool with a build overlay, so user source is
// never modified on disk.
//
// Usage:
//
//	pacergo [flags] run   <package> [args...]
//	pacergo [flags] test  [test flags] <packages>
//	pacergo [flags] build [build flags] <packages>
//
// Flags:
//
//	-rate r    sampling rate in [0,1] (default 1)
//	-algo a    detection backend (default "pacer"; see pacer.Options)
//	-seed n    sampling seed (default 1)
//	-out path  append JSON-lines race reports to path
//	-quiet     suppress stderr race reports
//	-fleet url push reports to a pacerd collector
//	-keep      keep the instrumented sources and print their directory
//	-v         log what gets instrumented
//
// Flags map onto the PACER_* environment read by pacer/internal/rt; an
// explicit flag overrides the inherited environment variable. For
// `build`, configuration is read at run time from the environment of the
// produced binary instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	fs := flag.NewFlagSet("pacergo", flag.ExitOnError)
	rate := fs.Float64("rate", 1.0, "sampling rate in [0,1]")
	algo := fs.String("algo", "pacer", "detection backend")
	seed := fs.Int("seed", 1, "sampling seed")
	out := fs.String("out", "", "append JSON-lines race reports to this path")
	quiet := fs.Bool("quiet", false, "suppress stderr race reports")
	fleetURL := fs.String("fleet", "", "push reports to this pacerd collector URL")
	keep := fs.Bool("keep", false, "keep instrumented sources, print their directory")
	verbose := fs.Bool("v", false, "log what gets instrumented")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pacergo [flags] run|test|build <packages> [args...]\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	if !(*rate >= 0 && *rate <= 1) { // the negated form also rejects NaN
		fmt.Fprintf(os.Stderr, "pacergo: -rate %g is not in [0,1]\n", *rate)
		fs.Usage()
		os.Exit(2)
	}
	args := fs.Args()
	if len(args) < 2 {
		fs.Usage()
		os.Exit(2)
	}
	sub := args[0]
	rest := args[1:]
	switch sub {
	case "run", "test", "build":
	default:
		fmt.Fprintf(os.Stderr, "pacergo: unknown command %q (want run, test, or build)\n", sub)
		os.Exit(2)
	}

	// Which arguments name packages? `go run` takes exactly one package
	// followed by program arguments; test and build take flags and
	// patterns in any order (use flag=value forms so patterns are
	// recognizable).
	var patterns []string
	if sub == "run" {
		patterns = []string{rest[0]}
	} else {
		for _, a := range rest {
			if len(a) > 0 && a[0] != '-' {
				patterns = append(patterns, a)
			}
		}
		if len(patterns) == 0 {
			patterns = []string{"."}
			rest = append(rest, ".")
		}
	}

	overlay, tmpDir, err := instrumentPackages(patterns, sub == "test", *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pacergo: %v\n", err)
		os.Exit(1)
	}
	cleanup := func() {
		if *keep {
			fmt.Fprintf(os.Stderr, "pacergo: instrumented sources kept in %s\n", tmpDir)
		} else {
			os.RemoveAll(tmpDir)
		}
	}

	goArgs := append([]string{sub, "-overlay", overlay}, rest...)
	cmd := exec.Command("go", goArgs...)
	cmd.Stdin = os.Stdin
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Env = childEnv(fs, *rate, *algo, *seed, *out, *quiet, *fleetURL)
	if *verbose {
		fmt.Fprintf(os.Stderr, "pacergo: go")
		for _, a := range goArgs {
			fmt.Fprintf(os.Stderr, " %s", a)
		}
		fmt.Fprintln(os.Stderr)
	}
	err = cmd.Run()
	cleanup()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "pacergo: %v\n", err)
		os.Exit(1)
	}
}

// childEnv builds the child process environment: the inherited
// environment with PACER_* entries overridden by explicitly-set flags
// (and populated from defaults where the environment says nothing).
func childEnv(fs *flag.FlagSet, rate float64, algo string, seed int, out string, quiet bool, fleetURL string) []string {
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	env := os.Environ()
	set := func(flagName, key, val string) {
		if !explicit[flagName] && os.Getenv(key) != "" {
			return // environment wins over a defaulted flag
		}
		if val == "" {
			return
		}
		env = append(env, key+"="+val)
	}
	set("rate", "PACER_RATE", strconv.FormatFloat(rate, 'g', -1, 64))
	set("algo", "PACER_ALGO", algo)
	set("seed", "PACER_SEED", strconv.Itoa(seed))
	set("out", "PACER_OUT", out)
	if quiet {
		set("quiet", "PACER_QUIET", "1")
	}
	set("fleet", "PACER_FLEET", fleetURL)
	return env
}
