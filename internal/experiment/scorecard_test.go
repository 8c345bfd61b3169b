package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// docTable locates the paper-vs-measured table under "## heading" in
// doc: from the heading line to the end of the table's last row.
func docTable(doc, heading string) (start, end int, ok bool) {
	start = strings.Index(doc, "## "+heading+"\n")
	if start < 0 {
		return 0, 0, false
	}
	sep := strings.Index(doc[start:], "\n|---")
	if next := strings.Index(doc[start+1:], "\n## "); sep < 0 || (next >= 0 && sep > next) {
		return 0, 0, false
	}
	end = start + sep + 1
	for end < len(doc) && doc[end] == '|' {
		end += strings.IndexByte(doc[end:], '\n') + 1
	}
	return start, end, true
}

// tableRows parses a rendered table's rows into cells, keyed by
// quantity.
func tableRows(md string) map[string][]string {
	rows := map[string][]string{}
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "| ") && !strings.HasPrefix(line, "| quantity") {
			cells := strings.Split(strings.Trim(line, "| "), " | ")
			rows[cells[0]] = cells
		}
	}
	return rows
}

// TestScorecard is the reproduction's verdict in one place: every row
// the paper states a value for is judged by its rule on the pinned
// runs — the ones the shape tests and the golden already simulated —
// and EXPERIMENTS.md's paper-vs-measured tables are, byte for byte,
// what those runs render (cmd/figures -fig scorecard prints the same).
// A simulator change that moves a measured cell fails here naming the
// figure and the quantity; one that is meant is recorded with
//
//	go test ./internal/experiment/ -run 'TestScorecard|TestFigureMetricsGolden' -update-golden
//
// which rewrites the tables in place.
func TestScorecard(t *testing.T) {
	text, err := Scorecard(pinned)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, block := range strings.Split(text, "## ")[1:] {
		heading, _, _ := strings.Cut(block, "\n")
		want := "## " + strings.TrimRight(block, "\n") + "\n"
		rendered := tableRows(want)
		for quantity, cells := range rendered {
			if verdict := cells[len(cells)-1]; !strings.HasPrefix(verdict, "✓") {
				t.Errorf("%s: %q fails its verdict rule (%s): measured %s, paper %s", heading, quantity, verdict, cells[2], cells[1])
			}
		}
		start, end, ok := docTable(doc, heading)
		switch {
		case ok && doc[start:end] == want:
		case *updateGolden && ok:
			doc = doc[:start] + want + doc[end:]
		case !ok:
			t.Errorf("EXPERIMENTS.md has no table under %q", "## "+heading)
		default:
			// Name the cells that differ; whatever else differs (the
			// configuration line, a row added or dropped) shows as text.
			named := false
			for quantity, old := range tableRows(doc[start:end]) {
				for i, cell := range rendered[quantity] {
					if len(old) == len(ScoreHeader) && old[i] != cell {
						named = true
						t.Errorf("EXPERIMENTS.md, %s, row %q, %s: the document has %q, the pinned runs render %q",
							heading, quantity, ScoreHeader[i], old[i], cell)
					}
				}
			}
			if !named {
				t.Errorf("EXPERIMENTS.md's table under %q is not what the pinned runs render:\n%s\nwant:\n%s", heading, doc[start:end], want)
			}
		}
	}
	if t.Failed() {
		t.Log("if the change is meant, rerun with -update-golden and list every cell that moved, old → new, in the PR")
	} else if doc != string(data) {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStudiesTable holds the table's shape: unique keys, and every
// study that prints under a paper-vs-measured table carries rows.
func TestStudiesTable(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Studies() {
		if s.Key == "" || seen[s.Key] || s.run == nil {
			t.Errorf("study %q: empty or duplicate key, or nothing to run", s.Key)
		}
		seen[s.Key] = true
		if s.Table != "" && s.byHand {
			t.Errorf("study %q prints under %q but tier-1 does not simulate it", s.Key, s.Table)
		}
	}
}

// TestStudyRunIsMemoised: a study runs once per Runs, at the
// configuration its door chose, and yields text, charts and metrics.
func TestStudyRunIsMemoised(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates one sweep cell")
	}
	r := NewRuns(Config{Seed: 2, Quick: true})
	out, err := study(t, "tacc").Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if want := "seed 2, 600 s transfers, 30 s epochs"; out.Config != want {
		t.Fatalf("config %q, want %q", out.Config, want)
	}
	again, err := study(t, "tacc").Run(r)
	if err != nil || again != out {
		t.Fatalf("second Run returned a different outcome (%v)", err)
	}
	if _, ok := out.Metrics["tacc-no-load/nm-tuner/mean-MB/s"]; !ok || out.Text == "" || len(out.Charts) == 0 {
		t.Fatalf("outcome incomplete: %d metrics, %d charts", len(out.Metrics), len(out.Charts))
	}
}
