package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

func sample() *Series {
	s := &Series{Name: "tput"}
	s.Add(0, 10)
	s.Add(30, 20)
	s.Add(60, 30)
	s.Add(90, 40)
	return s
}

func TestSeriesBasics(t *testing.T) {
	s := sample()
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Last(); got != (Point{T: 90, V: 40}) {
		t.Fatalf("Last = %v", got)
	}
	if got := s.Mean(); got != 25 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestEmptySeries(t *testing.T) {
	s := &Series{Name: "empty"}
	if s.Mean() != 0 || s.Len() != 0 {
		t.Fatal("empty series stats")
	}
	if s.Last() != (Point{}) {
		t.Fatal("empty Last should be zero")
	}
}

func TestValues(t *testing.T) {
	if vs := sample().Values(); len(vs) != 4 || vs[2] != 30 {
		t.Fatalf("Values = %v", vs)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5 (header + 4)", len(lines))
	}
	if lines[0] != "series,t,v" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "tput,0,10" {
		t.Fatalf("first row = %q", lines[1])
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	var out []Series
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Name != "tput" || len(out[0].Points) != 4 {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestSparkline(t *testing.T) {
	s := sample()
	sp := Sparkline(s, 4)
	if utf8.RuneCountInString(sp) != 4 {
		t.Fatalf("width = %d, want 4 (%q)", utf8.RuneCountInString(sp), sp)
	}
	// Monotone series: first rune lowest, last rune highest.
	runes := []rune(sp)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Fatalf("sparkline = %q, want low..high", sp)
	}
}

func TestSparklineEdge(t *testing.T) {
	if Sparkline(&Series{}, 10) != "" {
		t.Fatal("empty series should render empty")
	}
	if Sparkline(sample(), 0) != "" {
		t.Fatal("zero width should render empty")
	}
	// Constant series: all same rune, no division by zero.
	s := &Series{Name: "c"}
	s.Add(0, 5)
	s.Add(1, 5)
	sp := Sparkline(s, 2)
	if utf8.RuneCountInString(sp) != 2 {
		t.Fatalf("constant sparkline %q", sp)
	}
	// All-NaN series renders as spaces.
	n := &Series{Name: "nan"}
	n.Add(0, math.NaN())
	n.Add(1, math.NaN())
	if got := Sparkline(n, 3); got != "   " {
		t.Fatalf("NaN sparkline = %q", got)
	}
}

func TestSparklineSinglePoint(t *testing.T) {
	s := &Series{Name: "one"}
	s.Add(5, 42)
	sp := Sparkline(s, 3)
	if utf8.RuneCountInString(sp) != 3 {
		t.Fatalf("single-point sparkline %q has wrong width", sp)
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{
		{"1", "2"},
		{"333"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a  ") {
		t.Fatalf("header row = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("separator row = %q", lines[1])
	}
	// All rows align to the same width.
	if len(lines[2]) > len(lines[0])+2 {
		t.Fatalf("row wider than header: %q vs %q", lines[2], lines[0])
	}
}

func TestMBs(t *testing.T) {
	if got := MBs(2.5e9); got != "2500.0" {
		t.Fatalf("MBs = %q, want 2500.0", got)
	}
	if got := MBs(0); got != "0.0" {
		t.Fatalf("MBs(0) = %q", got)
	}
}
