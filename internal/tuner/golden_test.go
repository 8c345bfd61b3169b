package tuner

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dstune/internal/directsearch"
)

// updateGolden rewrites the golden trace fixtures from the current
// implementation. The fixtures were captured from the seed
// implementation (the blocking Tune loops), so a clean run of
// TestGoldenTraces proves the Strategy/engine control plane reproduces
// the seed traces exactly.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden traces")

// goldenCase is one (tuner, world, config) combination pinned by the
// golden fixtures.
type goldenCase struct {
	name string
	seed uint64
	cfg  Config
}

// goldenCases exercises every tuner on two worlds: a 1-D tune long
// enough to trigger monitor restarts, and a 2-D tune that exercises
// the stall-rotation paths of cd-tuner and heur1.
func goldenCases() []goldenCase {
	oneD := Config{
		Epoch:  5,
		Box:    directsearch.MustBox([]int{1}, []int{32}),
		Start:  []int{2},
		Map:    MapNC(4),
		Budget: 400,
		Seed:   7,
	}
	twoD := Config{
		Epoch:  5,
		Box:    directsearch.MustBox([]int{1, 1}, []int{32, 8}),
		Start:  []int{2, 4},
		Map:    MapNCNP(),
		Budget: 400,
		Seed:   9,
	}
	return []goldenCase{
		{"1d", 11, oneD},
		{"2d", 13, twoD},
	}
}

// goldenTuners names the tuners whose traces are pinned.
var goldenTuners = []string{"default", "cd-tuner", "cs-tuner", "nm-tuner", "heur1", "heur2", "model"}

// TestGoldenTraces is the refactor-equivalence property: for every
// tuner and pinned world, the produced trace must match the byte-level
// JSON fixture captured from the seed (pre-refactor) blocking-loop
// implementation.
func TestGoldenTraces(t *testing.T) {
	for _, gc := range goldenCases() {
		for _, name := range goldenTuners {
			t.Run(gc.name+"/"+name, func(t *testing.T) {
				tr, err := Run(t.Context(), name, gc.cfg, simTransfer(t, gc.seed))
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.MarshalIndent(tr, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				path := filepath.Join("testdata", "golden", gc.name+"_"+name+".json")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("golden fixture missing (run with -update-golden): %v", err)
				}
				if string(got) != string(want) {
					// Locate the first diverging epoch for a usable message.
					var ref Trace
					if err := json.Unmarshal(want, &ref); err != nil {
						t.Fatal(err)
					}
					for i := range ref.Results {
						if i >= len(tr.Results) || !reflect.DeepEqual(tr.Results[i], ref.Results[i]) {
							t.Fatalf("trace diverged from seed implementation at epoch %d:\n got %+v\nwant %+v",
								i, epochOrNil(tr.Results, i), epochOrNil(ref.Results, i))
						}
					}
					t.Fatalf("trace diverged: got %d epochs, golden has %d", len(tr.Results), len(ref.Results))
				}
			})
		}
	}
}

func epochOrNil(rs []EpochResult, i int) any {
	if i < len(rs) {
		return rs[i]
	}
	return "(missing)"
}
