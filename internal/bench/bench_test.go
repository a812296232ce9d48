package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestFeaturePickString(t *testing.T) {
	if PickMin.String() != "Min" || PickMed.String() != "Med" || PickRaw.String() != "Raw" {
		t.Error("FeaturePick strings wrong")
	}
	if InputAll.String() != "All" || InputRaw.String() != "Raw" || InputManual.String() != "Manual" {
		t.Error("InputMode strings wrong")
	}
}

// TestSLSubjectContracts checks every subject's adapter: deterministic
// workloads, stable feature sizes, labels in the model's output range.
func TestSLSubjectContracts(t *testing.T) {
	for _, s := range AllSLSubjects() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			ws := s.Workloads(7, 3)
			if len(ws) != 3 {
				t.Fatalf("Workloads returned %d", len(ws))
			}
			ws2 := s.Workloads(7, 3)
			f1 := s.Features(ws[0], PickMin)
			f2 := s.Features(ws2[0], PickMin)
			if len(f1) == 0 || len(f1) != len(f2) {
				t.Fatalf("feature size unstable: %d vs %d", len(f1), len(f2))
			}
			for i := range f1 {
				if f1[i] != f2[i] {
					t.Fatal("same seed produced different features")
				}
			}
			// Distinct bands have the expected relative sizes: Min is
			// the most compact.
			minN := len(s.Features(ws[0], PickMin))
			rawN := len(s.Features(ws[0], PickRaw))
			if minN >= rawN {
				t.Errorf("Min features (%d) not smaller than Raw (%d)", minN, rawN)
			}
			label := s.OracleLabel(ws[0])
			if len(label) == 0 {
				t.Fatal("empty oracle label")
			}
			for _, v := range label {
				if v < -0.01 || v > 1.01 {
					t.Errorf("label value %v outside [0,1]", v)
				}
			}
			// Scoring with the oracle label must be at least as good as
			// baseline on average over the 3 inputs.
			var base, orc float64
			for _, w := range ws {
				base += s.BaselineScore(w)
				orc += s.ScoreWithLabel(w, s.OracleLabel(w))
			}
			if s.HigherBetter() && orc < base-0.05 {
				t.Errorf("oracle (%v) clearly worse than baseline (%v)", orc, base)
			}
			if !s.HigherBetter() && orc > base+0.05 {
				t.Errorf("oracle (%v) clearly worse than baseline (%v)", orc, base)
			}
		})
	}
}

// TestRunSLQuick is a fast end-to-end harness check: all four versions
// train and produce the full result structure.
func TestRunSLQuick(t *testing.T) {
	res, err := RunSL(CannySubject{}, SLConfig{TrainN: 12, TestN: 4, Epochs: 4, Hidden: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subject != "Canny" || !res.HigherBetter {
		t.Error("metadata wrong")
	}
	if len(res.BaselinePer) != 4 {
		t.Errorf("baseline per-input count %d", len(res.BaselinePer))
	}
	for _, p := range []FeaturePick{PickRaw, PickMed, PickMin} {
		v := res.Versions[p]
		if v == nil {
			t.Fatalf("missing version %v", p)
		}
		if len(v.PerInput) != 4 || v.TrainTime <= 0 || v.ModelBytes <= 0 || v.TraceBytes <= 0 {
			t.Errorf("%v result incomplete: %+v", p, v)
		}
		if len(v.Curve) == 0 {
			t.Errorf("%v has no learning curve", p)
		}
	}
	// Improvement must be finite and defined for all picks.
	for _, p := range []FeaturePick{PickRaw, PickMed, PickMin} {
		_ = res.Improvement(p)
	}
}

// TestRunRLQuick is a fast end-to-end check of the RL harness protocol.
func TestRunRLQuick(t *testing.T) {
	res, err := RunRL(FlappySubject(), RLConfig{
		Mode: InputAll, TrainSteps: 1200, EvalEpisodes: 2, EvalEvery: 600,
		EpsilonDecaySteps: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subject != "Flappybird" || res.Mode != InputAll {
		t.Error("metadata wrong")
	}
	if res.TraceBytes == 0 || res.ModelBytes == 0 {
		t.Error("size accounting missing")
	}
	if res.Checkpoints != 1 || res.Restores == 0 {
		t.Errorf("checkpoint/restore counts: %d/%d", res.Checkpoints, res.Restores)
	}
	if len(res.Curve) == 0 {
		t.Error("no learning curve")
	}
	if res.PlayerScore <= 0 {
		t.Error("player reference missing")
	}
	if res.ExecPerStep <= 0 || res.BasePerStep <= 0 {
		t.Error("exec timing missing")
	}
}

// TestRunRLRawQuick checks the CNN path end to end.
func TestRunRLRawQuick(t *testing.T) {
	res, err := RunRL(FlappySubject(), RLConfig{
		Mode: InputRaw, TrainSteps: 150, EvalEpisodes: 1, EvalEvery: 150,
		EpsilonDecaySteps: 100, RawDownsample: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InputSize != 256 { // (64/4)²
		t.Errorf("raw input size = %d, want 256", res.InputSize)
	}
	// The raw model must be bigger than the All model on the same game.
	all, err := RunRL(FlappySubject(), RLConfig{
		Mode: InputAll, TrainSteps: 150, EvalEpisodes: 1, EvalEvery: 150,
		EpsilonDecaySteps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelBytes <= all.ModelBytes {
		t.Errorf("raw model (%d) not larger than All model (%d)", res.ModelBytes, all.ModelBytes)
	}
	if res.TraceBytes <= all.TraceBytes {
		t.Errorf("raw trace (%d) not larger than All trace (%d)", res.TraceBytes, all.TraceBytes)
	}
}

// TestWallClockBudget checks that the 24h-timeout analog actually stops
// training early.
func TestWallClockBudget(t *testing.T) {
	start := time.Now()
	_, err := RunRL(MarioSubject(), RLConfig{
		Mode: InputAll, TrainSteps: 1 << 30, EvalEpisodes: 1, EvalEvery: 1 << 30,
		TrainWallClock: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("wall-clock budget did not stop training: %v", elapsed)
	}
}

func TestBuildTable1Shape(t *testing.T) {
	rows := BuildTable1(1)
	if len(rows) != 9 {
		t.Fatalf("Table 1 has %d rows, want 9", len(rows))
	}
	// The measured column of EXPERIMENTS.md at seed 1, exactly: target
	// variables, candidates and surviving features per subject. LOC
	// columns move with edits to the subjects and are not pinned.
	want := map[string]struct {
		trg, cand int
		feats     []int
	}{
		"Canny":      {3, 21, []int{1, 11, 11}},
		"Rothwell":   {3, 9, []int{1, 4, 8}},
		"Phylip":     {3, 21, []int{6, 10, 11}},
		"Sphinx":     {2, 22, []int{8, 12}},
		"Flappybird": {2, 29, []int{6}},
		"Mario":      {1, 14, []int{9}},
		"Arkanoid":   {1, 17, []int{8}},
		"TORCS":      {1, 20, []int{8}},
		"Breakout":   {1, 13, []int{8}},
	}
	for _, r := range rows {
		if w, ok := want[r.Program]; !ok {
			t.Errorf("unexpected Table 1 row %q", r.Program)
		} else if r.TrgVars != w.trg || r.Candidate != w.cand || !slices.Equal(r.FeatureCounts, w.feats) {
			t.Errorf("%s: trg/candidates/features = %d / %d / %v, want %d / %d / %v",
				r.Program, r.TrgVars, r.Candidate, r.FeatureCounts, w.trg, w.cand, w.feats)
		}
		if r.TrgVars == 0 || r.Candidate == 0 || len(r.FeatureCounts) == 0 {
			t.Errorf("%s: incomplete row %+v", r.Program, r)
		}
		if r.AddedLOC == 0 || r.AddedLOC > 100 {
			t.Errorf("%s: AddedLOC %d implausible", r.Program, r.AddedLOC)
		}
		// Extraction must prune: features < candidates.
		total := 0
		for _, f := range r.FeatureCounts {
			total += f
		}
		if r.Kind == "RL" && total > r.Candidate {
			t.Errorf("%s: %d features exceed %d candidates", r.Program, total, r.Candidate)
		}
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	out := buf.String()
	for _, name := range []string{"Canny", "Mario", "TORCS", "Breakout"} {
		if !strings.Contains(out, name) {
			t.Errorf("rendered table missing %s", name)
		}
	}
}

func TestRenderers(t *testing.T) {
	// Render the remaining tables/figures from a quick SL run and
	// synthetic RL results; rendering must not panic and must mention
	// the key columns.
	res, err := RunSL(CannySubject{}, SLConfig{TrainN: 10, TestN: 3, Epochs: 3, Hidden: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderTable3SL(&buf, []*SLResult{res})
	RenderFig12(&buf, res)
	RenderFig13(&buf, res, 3)

	all := &RLResult{Subject: "X", Mode: InputAll, Score: 0.9, PlayerScore: 1,
		TrainTime: time.Second, ExecPerStep: time.Microsecond, BasePerStep: time.Microsecond,
		TraceBytes: 100, ModelBytes: 200, StepsToCompetitive: 10,
		Curve: []RLCurvePoint{{Step: 10, Score: 0.9}}}
	raw := &RLResult{Subject: "X", Mode: InputRaw, Score: 0.1, PlayerScore: 1,
		TrainTime: time.Second, ExecPerStep: 2 * time.Microsecond, BasePerStep: time.Microsecond,
		TraceBytes: 1000, ModelBytes: 2000,
		Curve: []RLCurvePoint{{Step: 10, Score: 0.1}}}
	rows := []Table3RLRow{{Program: "X", All: all, Raw: raw}}
	RenderTable3RL(&buf, rows)
	RenderFig17(&buf, all, all, raw)
	t2 := BuildTable2([]*SLResult{res}, rows)
	RenderTable2(&buf, t2)
	out := buf.String()
	for _, want := range []string{"Table 3", "Fig. 12", "Fig. 13", "Fig. 17", "Table 2", "t/o"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
	// Competitive logic.
	if !all.Competitive() {
		t.Error("0.9 vs player 1.0 should be competitive (within 20%)")
	}
	if raw.Competitive() {
		t.Error("0.1 vs player 1.0 should not be competitive")
	}
}

// TestSelfTestQuick exercises the coverage study at a tiny budget.
func TestSelfTestQuick(t *testing.T) {
	res, err := RunSelfTest(SelfTestConfig{TrainSteps: 1500, PlayWindow: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBlocks < 40 {
		t.Errorf("block count %d", res.TotalBlocks)
	}
	for _, c := range []float64{res.CoverageAgent, res.PlainAgent, res.Random} {
		if c <= 0 || c > 1 {
			t.Errorf("coverage out of range: %v", c)
		}
	}
	var buf bytes.Buffer
	RenderSelfTest(&buf, res, &BugHuntResult{Found: true, Crash: "x", Steps: 5})
	if !strings.Contains(buf.String(), "CRASH") {
		t.Error("render missing crash line")
	}
	RenderSelfTest(&buf, res, &BugHuntResult{Found: false, Steps: 5})
}

// TestBugHuntFindsCrash verifies the armed bug is reachable and the
// fixed build survives the same drive.
func TestBugHuntFindsCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("long hunt")
	}
	hunt := RunBugHunt(1, 150000)
	if !hunt.Found {
		t.Errorf("bug not found in %d steps", hunt.Steps)
	}
	if !strings.Contains(hunt.Crash, "boundary check") {
		t.Errorf("crash message %q", hunt.Crash)
	}
}

func TestTunedRLConfig(t *testing.T) {
	s := MarioSubject()
	cfg := TunedRLConfig(s, InputRaw, 5*time.Second)
	if cfg.TrainSteps != s.TunedTrainSteps || cfg.Mode != InputRaw || cfg.TrainWallClock != 5*time.Second {
		t.Errorf("TunedRLConfig = %+v", cfg)
	}
}

func TestCountLOC(t *testing.T) {
	if got := countLOC("internal/canny"); got < 100 {
		t.Errorf("canny LOC = %d, implausibly small", got)
	}
	if got := countLOC("no/such/dir"); got != 0 {
		t.Errorf("missing dir LOC = %d", got)
	}
}
