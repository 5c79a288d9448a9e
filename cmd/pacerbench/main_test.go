package main

import (
	"os"
	"strings"
	"testing"

	"pacer/internal/harness"
)

// TestDocListsExperiments pins the package doc to the experiments list:
// the usage line names every experiment, and the wall-clock paragraph
// names every wall-clock experiment.
func TestDocListsExperiments(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src[:strings.Index(string(src), "package main")])
	usage := "[-experiment all|" + strings.Join(experiments, "|") + "]"
	if !strings.Contains(doc, usage) {
		t.Errorf("package doc usage line does not read %s", usage)
	}
	wall := harness.WallClock
	sentence := "The " + strings.Join(wall[:len(wall)-1], ", ") + ", and " + wall[len(wall)-1] + " experiments"
	if !strings.Contains(doc, sentence) {
		t.Errorf("package doc wall-clock paragraph does not open with %q", sentence)
	}
}
