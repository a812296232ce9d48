package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRenderTable1Golden pins the Table 1 layout against a fixed row
// set, so format regressions show up as diffs rather than silently
// garbled CLI output.
func TestRenderTable1Golden(t *testing.T) {
	rows := []Table1Row{
		{Kind: "SL", Program: "Canny", LOC: 284, AddedLOC: 9, TrgVars: 3,
			Candidate: 21, FeatureCounts: []int{1, 11, 11}},
		{Kind: "RL", Program: "Breakout", LOC: 269, AddedLOC: 8, TrgVars: 1,
			Candidate: 8, FeatureCounts: []int{8}, Note: "emulator-annotated"},
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	want := `Table 1. Program analysis statistics
     Program         LOC  Added   Trg  Candidate Feature Vars
[SL] Canny           284      9     3         21 1/11/11
[RL] Breakout        269      8     1          8 8 (emulator-annotated)
`
	if buf.String() != want {
		t.Errorf("Table 1 layout changed:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestRenderTable2Golden pins the Table 2 layout and ratio arithmetic.
func TestRenderTable2Golden(t *testing.T) {
	rows := []Table2Row{
		{Kind: "SL", Program: "Canny",
			RawTrace: 1000, RawModel: 800, MedTrace: 500, MedModel: 400,
			MinTrace: 100, MinModel: 200},
		{Kind: "RL", Program: "Mario",
			RawTrace: 2000, RawModel: 1000, MinTrace: 200, MinModel: 100,
			CkptTime: 25 * time.Second, RestoreTime: 7 * time.Second},
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	out := buf.String()
	for _, want := range []string{
		"1000/800", "500/400", "100/200", "10.0x/4.0x",
		"2000/1000", "200/100", "10.0x/10.0x", "25s", "7s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q:\n%s", want, out)
		}
	}
	// SL rows have no checkpoint column values.
	if strings.Count(out, "25s") != 1 {
		t.Error("checkpoint time leaked into SL rows")
	}
}

// TestRenderFig17Alignment checks the curve-alignment logic when the
// three series have different lengths.
func TestRenderFig17Alignment(t *testing.T) {
	mk := func(scores ...float64) *RLResult {
		r := &RLResult{PlayerScore: 1}
		for i, s := range scores {
			r.Curve = append(r.Curve, RLCurvePoint{Step: (i + 1) * 1000, Score: s})
		}
		return r
	}
	all := mk(0.2, 0.9, 1.0)
	manual := mk(0.5)
	raw := mk(0.1, 0.1)
	var buf bytes.Buffer
	RenderFig17(&buf, all, manual, raw)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + 2 header lines + 3 data rows + footer = 6 lines.
	if len(lines) != 6 {
		t.Fatalf("Fig. 17 rendered %d lines:\n%s", len(lines), buf.String())
	}
	// Shorter series must hold their last value, not crash or zero-fill.
	if !strings.Contains(lines[4], "0.500") {
		t.Errorf("manual series did not extend its last value: %q", lines[4])
	}
}

// TestRatioDur covers the division guard.
func TestRatioDur(t *testing.T) {
	if got := ratioDur(10, 0); got != 0 {
		t.Errorf("ratioDur(_, 0) = %v", got)
	}
	if got := ratioDur(10*time.Microsecond, 5*time.Microsecond); got != 2 {
		t.Errorf("ratioDur = %v, want 2", got)
	}
}

// TestTORCSAblationHelper pins Algorithm 2's seed-1 ablation. Of the 20
// candidates, the unpruned arm (ε₁ = ε₂ = 0) already drops exact
// duplicates of posX (posXdup, trackPos) and constants (damage, gear,
// rpm, speedX); the paper's thresholds then remove lapTime, progress,
// roll, steps and wallDistL by ε₁ and accX by ε₂.
func TestTORCSAblationHelper(t *testing.T) {
	pruned := []string{"angle", "curvFar", "curvNext", "curvNow", "distRaced", "fuel", "posX", "wallDistR"}
	unpruned := []string{"accX", "angle", "curvFar", "curvNext", "curvNow", "distRaced", "fuel",
		"lapTime", "posX", "progress", "roll", "steps", "wallDistL", "wallDistR"}
	if got := TORCSFeatureAblation(1, true); !reflect.DeepEqual(got, pruned) {
		t.Errorf("pruned features %v, want %v", got, pruned)
	}
	if got := TORCSFeatureAblation(1, false); !reflect.DeepEqual(got, unpruned) {
		t.Errorf("unpruned features %v, want %v", got, unpruned)
	}
}

func TestSubjectDepGraph(t *testing.T) {
	for _, name := range []string{"canny", "rothwell", "phylip", "sphinx",
		"flappy", "mario", "arkanoid", "torcs", "breakout"} {
		g, err := SubjectDepGraph(name, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if g.VarCount() == 0 || g.EdgeCount() == 0 {
			t.Errorf("%s: empty graph", name)
		}
		if dot := g.DOT(name); len(dot) < 40 {
			t.Errorf("%s: DOT too small", name)
		}
	}
	if _, err := SubjectDepGraph("pacman", 1); err == nil {
		t.Error("unknown subject accepted")
	}
}
