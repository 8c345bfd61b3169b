package tuner

import (
	"os"
	"regexp"
	"testing"
)

// TestStrategyDocCoverage pins STRATEGIES.md to the strategy registry
// the way TestObservabilityDocCoverage pins OBSERVABILITY.md to the
// instrument registry: every registry row must have its own
// "## `name`" section, and — in reverse — every documented name must
// actually construct,
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

	for _, name := range StrategyNames() {
		if !documented[name] {
			t.Errorf("STRATEGIES.md has no section \"## `%s`\"", name)
		}
	}

	for name := range documented {
		if !KnownStrategy(name) {
			t.Errorf("STRATEGIES.md documents %q but NewStrategy rejects it", name)
		}
	}
}
