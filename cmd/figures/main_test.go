package main

import (
	"os"
	"strings"
	"testing"

	"dstune/internal/experiment"
	"dstune/internal/trace"
)

func TestMBSeries(t *testing.T) {
	s := &trace.Series{Name: "x"}
	s.Add(0, 2e9)
	s.Add(30, 3e9)
	out := lineSeries(s, experiment.Chart{Unit: "MB/s"}.Scale())
	if len(out.X) != 2 || out.Y[0] != 2000 || out.Y[1] != 3000 {
		t.Fatalf("MB/s line series = %+v", out)
	}
}

func TestRawSeries(t *testing.T) {
	s := &trace.Series{Name: "nc"}
	s.Add(0, 2)
	s.Add(30, 8)
	out := lineSeries(s, experiment.Chart{Unit: "nc"}.Scale())
	if out.Y[1] != 8 {
		t.Fatalf("nc line series = %+v", out)
	}
}

// TestQuickRCDurations: -quick caps a study's transfers at 600 s, a
// named seed runs them at the paper's 1800 s, and neither leaves the
// pinned configuration alone.
func TestQuickRCDurations(t *testing.T) {
	pinned := experiment.RunConfig{Seed: 7, Duration: 900, Epoch: 30}
	if rc := (experiment.Config{Seed: 1, Quick: true}).At(pinned); rc.Duration != 600 || rc.Seed != 1 {
		t.Fatalf("quick run config = %+v", rc)
	}
	if rc := (experiment.Config{Seed: 1}).At(pinned); rc.Duration != 1800 || rc.Epoch != 30 {
		t.Fatalf("seeded run config = %+v", rc)
	}
	if rc := (experiment.Config{}).At(pinned); rc != pinned {
		t.Fatalf("pinned run config = %+v", rc)
	}
}

func TestSelectStudies(t *testing.T) {
	all, err := selectStudies("all")
	if err != nil || len(all) != len(experiment.Studies()) {
		t.Fatalf("all selects %d studies, %v", len(all), err)
	}
	if one, err := selectStudies("claims"); err != nil || len(one) != 1 || one[0].Key != "claims" {
		t.Fatalf("claims selects %v, %v", one, err)
	}
	if _, err := selectStudies("12"); err == nil {
		t.Fatal("unknown study accepted")
	}
}

func TestHTMLReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick experiment suite")
	}
	// Figure 1's medians over nc, the shared sweep's line charts,
	// two-parameter traces and a dataset study: every kind of section
	// the report renders.
	var studies []experiment.Study
	for _, key := range []string{"1", "5", "10", "disk"} {
		one, err := selectStudies(key)
		if err != nil {
			t.Fatal(err)
		}
		studies = append(studies, one...)
	}
	path := t.TempDir() + "/report.html"
	if err := writeHTML(path, studies, experiment.NewRuns(experiment.Config{Seed: 1, Quick: true})); err != nil {
		t.Fatal(err)
	}
	// The report must contain the paper figures and end cleanly.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data := string(raw)
	for _, want := range []string{"Figure 1", "Figure 5", "Figure 10", "</html>"} {
		if !strings.Contains(data, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// Figure 1 is a line chart over nc, and no chart is drawn as bars.
	title := strings.Index(data, `<span class="title">Figure 1 — median`)
	if title < 0 {
		t.Fatal("report has no Figure 1 chart")
	}
	open := strings.LastIndex(data[:title], "<figure")
	fig1 := data[open : open+strings.Index(data[open:], "</figure>")]
	if !strings.HasPrefix(fig1, `<figure class="chart" data-kind="line">`) {
		t.Fatalf("Figure 1 is not a line chart: %.80s", fig1)
	}
	if !strings.Contains(fig1, `class="axis-label">nc</text>`) {
		t.Fatal("Figure 1 has no x label nc")
	}
	if strings.Contains(data, `data-kind="bar"`) {
		t.Fatal(`report contains a data-kind="bar" chart`)
	}
}
