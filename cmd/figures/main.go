// Command figures regenerates the studies of experiment.Studies — every
// figure of the paper's evaluation, the claims derived from them, the
// extensions and the ablations — on the simulated testbeds.
//
// Usage:
//
//	figures [-fig all|scorecard|KEY] [-quick] [-seed N] [-csv DIR] [-html FILE]
//
// Without -seed each study runs at its pinned configuration: the seed
// and length tier-1 simulates it at, the golden holds and EXPERIMENTS.md
// quotes; -fig scorecard prints EXPERIMENTS.md's paper-vs-measured
// tables from those runs. -seed N reruns at seed N and the paper's
// 1800 s; -quick caps every transfer at 600 s for a fast smoke pass.
// Studies that are views of the same transfers (5, 6, 7, claims,
// convergence) share one sweep. -csv writes each chart's series to DIR;
// -html writes the selected studies as one self-contained report.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"dstune/internal/experiment"
	"dstune/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var keys []string
	for _, s := range experiment.Studies() {
		keys = append(keys, s.Key)
	}
	fig := flag.String("fig", "all", "study to regenerate: all, "+strings.Join(keys, ", "))
	quick := flag.Bool("quick", false, "cap every transfer at 600 s (smoke mode)")
	seed := flag.Uint64("seed", 0, "random seed, run at the paper's 1800 s; 0 runs each study at its pinned configuration")
	csvDir := flag.String("csv", "", "directory to write series CSVs into")
	htmlPath := flag.String("html", "", "write a self-contained HTML report (with SVG charts) to this path")
	flag.Parse()

	studies, err := selectStudies(*fig)
	if err != nil {
		log.Fatal(err)
	}
	runs := experiment.NewRuns(experiment.Config{Seed: *seed, Quick: *quick})
	if *htmlPath != "" {
		if err := writeHTML(*htmlPath, studies, runs); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *htmlPath)
		return
	}
	for _, s := range studies {
		out, err := s.Run(runs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n(%s)\n\n%s\n", s.Title, out.Config, out.Text)
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, out.Charts); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// selectStudies returns the study named fig, or all of them.
func selectStudies(fig string) ([]experiment.Study, error) {
	all := experiment.Studies()
	if fig == "all" {
		return all, nil
	}
	for _, s := range all {
		if s.Key == fig {
			return []experiment.Study{s}, nil
		}
	}
	return nil, fmt.Errorf("unknown study %q", fig)
}

// writeCSVs writes each chart's series to dir, one file per chart.
func writeCSVs(dir string, charts []experiment.Chart) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, c := range charts {
		name := strings.NewReplacer("/", "-", " ", "_").Replace(c.Title) + ".csv"
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := trace.WriteCSV(f, c.Series...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
