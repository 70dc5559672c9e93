package repro_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyMakeTargets fails when README.md, DESIGN.md or
// EXPERIMENTS.md quotes a `make <target>` command whose target the
// Makefile does not define, so a deleted target cannot linger in the
// docs. A quoted command may break across lines and may carry variable
// assignments (`make fuzz-short FUZZTIME=10s`).
func TestDocsNameOnlyMakeTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):([^=]|$)`).FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	if len(targets) == 0 {
		t.Fatal("no targets found in Makefile")
	}
	quoted := regexp.MustCompile("`make\\s+([^`]*)`")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range quoted.FindAllStringSubmatch(string(text), -1) {
			for _, word := range strings.Fields(m[1]) {
				if strings.Contains(word, "=") || strings.HasPrefix(word, "-") {
					continue
				}
				if !targets[word] {
					t.Errorf("%s quotes `make %s`, but the Makefile has no target %q", doc, m[1], word)
				}
			}
		}
	}
}
