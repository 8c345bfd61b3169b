package tuner

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestStrategyDocCoverage pins STRATEGIES.md to the strategy registry
// the way TestObservabilityDocCoverage pins OBSERVABILITY.md to the
// instrument registry: every registry row must have its own
// "## `name`" section, the one wrapper prefix must be documented, and —
// in reverse — every documented name must actually construct,
// so the catalog can neither lag the code nor advertise strategies
// that do not exist.
func TestStrategyDocCoverage(t *testing.T) {
	doc, err := os.ReadFile("../../STRATEGIES.md")
	if err != nil {
		t.Fatalf("STRATEGIES.md: %v", err)
	}
	text := string(doc)

	headRE := regexp.MustCompile("(?m)^## `([^`]+)`")
	documented := map[string]bool{}
	for _, m := range headRE.FindAllStringSubmatch(text, -1) {
		if documented[m[1]] {
			t.Errorf("STRATEGIES.md documents %q twice", m[1])
		}
		documented[m[1]] = true
	}

	want := append(StrategyNames(), "kernel-aware:<inner>")
	for _, name := range want {
		if !documented[name] {
			t.Errorf("STRATEGIES.md has no section \"## `%s`\"", name)
		}
	}

	for name := range documented {
		probe := name
		// The wrapper section uses a placeholder inner name; probe it
		// with a real one.
		if strings.Contains(name, "<inner>") {
			probe = strings.ReplaceAll(name, "<inner>", "cs-tuner")
		}
		if !KnownStrategy(probe) {
			t.Errorf("STRATEGIES.md documents %q but NewStrategy rejects it", name)
		}
	}
}
