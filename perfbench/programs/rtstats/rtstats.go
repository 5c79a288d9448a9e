// Package rtstats prints the instrumented process's detector counters.
// Only the pacerstats-tagged files of the workload programs import it,
// so an uninstrumented build never links the detector.
package rtstats

import (
	"encoding/json"
	"fmt"
	"os"

	"pacer/internal/rt"
)

// Print writes one "stats <json>" line holding rt.D().Stats().
func Print() {
	b, err := json.Marshal(rt.D().Stats())
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(os.Stdout, "stats %s\n", b)
}
