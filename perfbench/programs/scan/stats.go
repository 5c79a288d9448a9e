//go:build pacerstats

package main

import "pacer/perfbench/programs/rtstats"

func init() { atExit = rtstats.Print }
