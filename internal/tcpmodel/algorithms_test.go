package tcpmodel

import (
	"encoding/json"
	"math"
	"os"
	"strconv"
	"testing"
)

// algoCap is the window cap the fixture's streams run under: the 4 MiB
// socket buffer of the paper's testbed, reached in slow start at both
// RTTs.
const algoCap = 4 << 20

// algoRTTs are the round-trip times the fixture drives each algorithm
// at: one too short for H-TCP to leave its low-speed phase between
// losses, one long enough that it does.
var algoRTTs = []float64{0.012, 0.1}

// streamFields names, in order, what algoRecord.Stream holds.
var streamFields = []string{"Cwnd", "Ssthresh", "MSS", "MaxCwnd", "SlowStart", "SinceLoss", "WMax", "MinRTT", "MaxRTT", "Losses"}

// growthFields names, in order, what algoRecord.Growth holds.
var growthFields = []string{"P0", "P1", "P2", "P3", "E", "R", "Until", "End", "AtCap"}

// algoRecord is one call of the fixture's sequence and the stream after
// it (and, for Grow, what it returned). Floats are written with
// strconv's shortest exact form, so the record round-trips bit for bit,
// infinities included.
type algoRecord struct {
	Call   string   `json:"call"`
	Step   int      `json:"step"`
	Stream []string `json:"stream"`
	Growth []string `json:"growth,omitempty"`
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func streamRecord(s *Stream) []string {
	return []string{fmtFloat(s.Cwnd), fmtFloat(s.Ssthresh), fmtFloat(s.MSS), fmtFloat(s.MaxCwnd),
		strconv.FormatBool(s.SlowStart), fmtFloat(s.SinceLoss), fmtFloat(s.WMax),
		fmtFloat(s.MinRTT), fmtFloat(s.MaxRTT), strconv.FormatUint(s.Losses, 10)}
}

func growthRecord(g Growth) []string {
	return []string{fmtFloat(g.P[0]), fmtFloat(g.P[1]), fmtFloat(g.P[2]), fmtFloat(g.P[3]),
		fmtFloat(g.E), fmtFloat(g.R), fmtFloat(g.Until), fmtFloat(g.End), strconv.FormatBool(g.AtCap)}
}

// driveAlgorithm runs alg on a fresh stream at rtt through four loss
// intervals of 120 round trips each, with RTT samples that vary within
// each interval (H-TCP's backoff reads them), and returns the stream
// after every OnLoss and every twentieth OnRTT, and what Grow returns
// at each of those points and at the start.
func driveAlgorithm(alg Algorithm, rtt float64) []algoRecord {
	s := NewStream(algoCap)
	var recs []algoRecord
	step := 0
	grow := func() {
		g := alg.Grow(&s, rtt)
		recs = append(recs, algoRecord{Call: "Grow", Step: step, Stream: streamRecord(&s), Growth: growthRecord(g)})
	}
	grow()
	for loss := 0; loss < 4; loss++ {
		for i := 0; i < 120; i++ {
			step++
			s.SinceLoss += rtt
			s.ObserveRTT(rtt * (1 + float64(i%7)/10))
			alg.OnRTT(&s, rtt)
			if i%20 == 19 {
				recs = append(recs, algoRecord{Call: "OnRTT", Step: step, Stream: streamRecord(&s)})
				grow()
			}
		}
		step++
		alg.OnLoss(&s)
		recs = append(recs, algoRecord{Call: "OnLoss", Step: step, Stream: streamRecord(&s)})
	}
	return recs
}

// algoKey names one algorithm at one RTT in the fixture.
func algoKey(name string, rtt float64) string { return name + "@" + fmtFloat(rtt) }

// TestAlgorithmsMatchParent holds the four algorithms bit for bit: the
// stream after each call of driveAlgorithm's fixed sequence, at two RTTs,
// and every Growth it asks for, equal to
// testdata/algorithms_parent.json, which the same sequence wrote when
// each algorithm's constants were fields set by its constructor. It
// catches a constant whose expression the compiler folds exactly where
// the run-time arithmetic it replaced rounded: CUBIC's 1 - β is
// 0.30000000000000004 in float64, and an exact fold to 0.3 moves the
// windows of every CUBIC recovery.
func TestAlgorithmsMatchParent(t *testing.T) {
	raw, err := os.ReadFile("testdata/algorithms_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]algoRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(algorithmNames)*len(algoRTTs) {
		t.Fatalf("fixture holds %d runs, want %d", len(want), len(algorithmNames)*len(algoRTTs))
	}
	for _, name := range algorithmNames {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rtt := range algoRTTs {
			key := algoKey(name, rtt)
			got, exp := driveAlgorithm(alg, rtt), want[key]
			if len(got) != len(exp) {
				t.Fatalf("%s: %d records, fixture has %d", key, len(got), len(exp))
			}
			for i := range got {
				if d := diffRecord(got[i], exp[i]); d != "" {
					t.Fatalf("%s: %s at step %d: %s", key, got[i].Call, got[i].Step, d)
				}
			}
		}
	}
}

// diffRecord names the first field where got and want differ, comparing
// floats by their bits.
func diffRecord(got, want algoRecord) string {
	if got.Call != want.Call || got.Step != want.Step {
		return "call " + got.Call + " where the fixture has " + want.Call + " at step " + strconv.Itoa(want.Step)
	}
	if d := diffFields(streamFields, got.Stream, want.Stream); d != "" {
		return "stream " + d
	}
	return diffFields(growthFields, got.Growth, want.Growth)
}

func diffFields(names, got, want []string) string {
	if len(got) != len(want) {
		return "holds " + strconv.Itoa(len(got)) + " fields, fixture " + strconv.Itoa(len(want))
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		g, gerr := strconv.ParseFloat(got[i], 64)
		w, werr := strconv.ParseFloat(want[i], 64)
		if gerr != nil || werr != nil || math.Float64bits(g) != math.Float64bits(w) {
			return names[i] + " = " + got[i] + ", fixture " + want[i]
		}
	}
	return ""
}
