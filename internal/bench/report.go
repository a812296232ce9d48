package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/autonomizer/autonomizer/internal/canny"
	"github.com/autonomizer/autonomizer/internal/dep"
	"github.com/autonomizer/autonomizer/internal/extract"
	"github.com/autonomizer/autonomizer/internal/games/arkanoid"
	"github.com/autonomizer/autonomizer/internal/games/breakout"
	"github.com/autonomizer/autonomizer/internal/games/env"
	"github.com/autonomizer/autonomizer/internal/games/flappy"
	"github.com/autonomizer/autonomizer/internal/games/mario"
	"github.com/autonomizer/autonomizer/internal/games/torcs"
	"github.com/autonomizer/autonomizer/internal/imaging"
	"github.com/autonomizer/autonomizer/internal/phylip"
	"github.com/autonomizer/autonomizer/internal/rothwell"
	"github.com/autonomizer/autonomizer/internal/sphinx"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/trace"
)

// TunedRLConfig returns the per-subject training configuration the
// Table 3 harness uses for a mode. Raw gets the same wall-clock budget
// All's training consumed at most (the paper gives both 24 hours) —
// callers pass that in; zero means step-budget only.
func TunedRLConfig(subject *RLSubject, mode InputMode, wallClock time.Duration) RLConfig {
	return RLConfig{
		Mode:              mode,
		TrainSteps:        subject.TunedTrainSteps,
		EpsilonDecaySteps: subject.TunedEpsilonDecay,
		EvalEvery:         subject.TunedEvalEvery,
		TrainWallClock:    wallClock,
		Seed:              1,
	}
}

// Table1Row is one subject's program-analysis statistics.
type Table1Row struct {
	Kind      string // "SL" or "RL"
	Program   string
	LOC       int
	AddedLOC  int
	TrgVars   int
	Candidate int
	// FeatureCounts is per-target for SL (the paper's "1/23/23" cells)
	// and the combined count for RL.
	FeatureCounts []int
	// Note marks emulator-annotated subjects (the paper leaves their
	// analysis columns empty).
	Note string
}

// RenderTable1 prints rows in the paper's Table 1 layout.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1. Program analysis statistics")
	fmt.Fprintf(w, "%-4s %-11s %7s %6s %5s %10s %s\n",
		"", "Program", "LOC", "Added", "Trg", "Candidate", "Feature Vars")
	for _, r := range rows {
		feat := make([]string, len(r.FeatureCounts))
		for i, f := range r.FeatureCounts {
			feat[i] = fmt.Sprintf("%d", f)
		}
		featStr := strings.Join(feat, "/")
		if r.Note != "" {
			featStr += " (" + r.Note + ")"
		}
		fmt.Fprintf(w, "[%s] %-11s %7d %6d %5d %10d %s\n",
			r.Kind, r.Program, r.LOC, r.AddedLOC, r.TrgVars, r.Candidate, featStr)
	}
}

// Table2Row is one subject's model statistics.
type Table2Row struct {
	Kind    string
	Program string
	// SL: trace/model bytes per feature band. RL: Raw and All only.
	RawTrace, RawModel int
	MedTrace, MedModel int // SL only
	MinTrace, MinModel int // SL: Min; RL: All
	// Checkpoint/restore modeled durations (RL only).
	CkptTime, RestoreTime time.Duration
}

// RenderTable2 prints rows in the paper's Table 2 layout.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2. Model statistics (trace and model sizes in bytes)")
	fmt.Fprintf(w, "%-4s %-11s %23s %23s %23s %14s %10s %10s\n",
		"", "Program", "Raw(trace/model)", "Med(trace/model)", "Min|All(trace/model)", "Raw/Min ratio", "Ckpt", "Restore")
	for _, r := range rows {
		ratioT, ratioM := "-", "-"
		if r.MinTrace > 0 {
			ratioT = fmt.Sprintf("%.1f", float64(r.RawTrace)/float64(r.MinTrace))
		}
		if r.MinModel > 0 {
			ratioM = fmt.Sprintf("%.1f", float64(r.RawModel)/float64(r.MinModel))
		}
		med := "-"
		if r.MedTrace > 0 {
			med = fmt.Sprintf("%d/%d", r.MedTrace, r.MedModel)
		}
		ck, rs := "-", "-"
		if r.CkptTime > 0 {
			ck = r.CkptTime.Round(time.Millisecond * 10).String()
			rs = r.RestoreTime.Round(time.Millisecond * 10).String()
		}
		fmt.Fprintf(w, "[%s] %-11s %23s %23s %23s %14s %10s %10s\n",
			r.Kind, r.Program,
			fmt.Sprintf("%d/%d", r.RawTrace, r.RawModel),
			med,
			fmt.Sprintf("%d/%d", r.MinTrace, r.MinModel),
			ratioT+"x/"+ratioM+"x", ck, rs)
	}
}

// Table3SLRow is one supervised subject's effectiveness comparison.
type Table3SLRow struct {
	Program      string
	HigherBetter bool
	Baseline     *SLResult
}

// Table3RLRow is one interactive subject's effectiveness comparison.
type Table3RLRow struct {
	Program      string
	All, Raw     *RLResult
	ScoreIsCount bool
}

// RenderTable3SL prints the supervised half of Table 3.
func RenderTable3SL(w io.Writer, rows []*SLResult) {
	fmt.Fprintln(w, "Table 3 (SL). Baseline vs Raw vs Med vs Min")
	fmt.Fprintf(w, "%-10s %3s %9s | %9s %8s | %9s %8s | %9s %8s | %11s\n",
		"Program", "dir", "Baseline", "Raw", "(train)", "Med", "(train)", "Min", "(train)", "Raw/Min t")
	for _, r := range rows {
		dir := "↑"
		if !r.HigherBetter {
			dir = "↓"
		}
		raw, med, min := r.Versions[PickRaw], r.Versions[PickMed], r.Versions[PickMin]
		// A version may be missing when an interrupted run flushed a
		// partial result; render "-" instead of crashing the flush.
		cell := func(v *SLVersionResult) (score, train string) {
			if v == nil {
				return "-", "-"
			}
			return fmt.Sprintf("%.3f", v.Score), v.TrainTime.Round(time.Millisecond).String()
		}
		rawS, rawT := cell(raw)
		medS, medT := cell(med)
		minS, minT := cell(min)
		ratio := "-"
		if raw != nil && min != nil && min.TrainTime > 0 {
			ratio = fmt.Sprintf("%.2f", float64(raw.TrainTime)/float64(min.TrainTime))
		}
		fmt.Fprintf(w, "%-10s %3s %9.3f | %9s %8s | %9s %8s | %9s %8s | %11s\n",
			r.Subject, dir, r.BaselineScore,
			rawS, rawT, medS, medT, minS, minT, ratio)
	}
	fmt.Fprintln(w, "Improvement over baseline (Min):")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s Raw %+5.0f%%  Med %+5.0f%%  Min %+5.0f%%\n",
			r.Subject, r.Improvement(PickRaw), r.Improvement(PickMed), r.Improvement(PickMin))
	}
}

// RenderTable3RL prints the interactive half of Table 3.
func RenderTable3RL(w io.Writer, rows []Table3RLRow) {
	fmt.Fprintln(w, "Table 3 (RL). Players vs Raw vs All")
	fmt.Fprintf(w, "%-11s %14s | %22s | %22s\n",
		"Program", "Players", "Raw (score, train)", "All (score, train)")
	for _, r := range rows {
		fmtScore := func(res *RLResult, score, success float64) string {
			s := fmt.Sprintf("%.1f%%/%.0f%%", 100*score, 100*success)
			if r.ScoreIsCount {
				s = fmt.Sprintf("%.1f", score)
			}
			if res != nil {
				if res.StepsToCompetitive > 0 {
					s += fmt.Sprintf(" @%d", res.StepsToCompetitive)
				} else {
					s += " t/o"
				}
				s += " " + res.TrainTime.Round(time.Millisecond*100).String()
			}
			return s
		}
		players := fmt.Sprintf("%.1f%%/%.0f%%", 100*r.All.PlayerScore, 100*r.All.PlayerSuccess)
		if r.ScoreIsCount {
			players = fmt.Sprintf("%.1f", r.All.PlayerScore)
		}
		fmt.Fprintf(w, "%-11s %14s | %22s | %22s\n",
			r.Program, players,
			fmtScore(r.Raw, r.Raw.Score, r.Raw.SuccessRate),
			fmtScore(r.All, r.All.Score, r.All.SuccessRate))
	}
	fmt.Fprintln(w, "Exec overhead per frame (model-assisted vs plain):")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-11s base %8s  All %8s (%.1fx)  Raw %8s (%.1fx)\n",
			r.Program,
			r.All.BasePerStep, r.All.ExecPerStep,
			ratioDur(r.All.ExecPerStep, r.All.BasePerStep),
			r.Raw.ExecPerStep,
			ratioDur(r.Raw.ExecPerStep, r.All.BasePerStep))
	}
}

func ratioDur(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// RenderFig12 prints the per-image score comparison (Fig. 12: Canny
// predictions of 10 datasets).
func RenderFig12(w io.Writer, r *SLResult) {
	fmt.Fprintf(w, "Fig. 12. %s per-input scores on %d held-out inputs\n", r.Subject, len(r.BaselinePer))
	fmt.Fprintf(w, "%5s %9s %9s %9s %9s\n", "input", "Baseline", "Raw", "Med", "Min")
	for i := range r.BaselinePer {
		fmt.Fprintf(w, "%5d %9.3f %9.3f %9.3f %9.3f\n", i+1,
			r.BaselinePer[i],
			r.Versions[PickRaw].PerInput[i],
			r.Versions[PickMed].PerInput[i],
			r.Versions[PickMin].PerInput[i])
	}
	fmt.Fprintf(w, "%5s %9.3f %9.3f %9.3f %9.3f\n", "mean",
		r.BaselineScore, r.Versions[PickRaw].Score,
		r.Versions[PickMed].Score, r.Versions[PickMin].Score)
}

// RenderFig13 prints the score-vs-epoch curves (Fig. 13).
func RenderFig13(w io.Writer, r *SLResult, epochsPerSample int) {
	fmt.Fprintf(w, "Fig. 13. %s score vs training epochs\n", r.Subject)
	fmt.Fprintf(w, "%6s %9s %9s %9s %9s\n", "epoch", "Baseline", "Raw", "Med", "Min")
	n := len(r.Versions[PickMin].Curve)
	for i := 0; i < n; i++ {
		get := func(p FeaturePick) float64 {
			c := r.Versions[p].Curve
			if i < len(c) {
				return c[i]
			}
			return c[len(c)-1]
		}
		fmt.Fprintf(w, "%6d %9.3f %9.3f %9.3f %9.3f\n",
			i*epochsPerSample, r.BaselineScore, get(PickRaw), get(PickMed), get(PickMin))
	}
}

// RenderFig17 prints the TORCS driving-score curves (Fig. 17):
// Players reference plus the All / Manual / Raw learning curves.
func RenderFig17(w io.Writer, all, manual, raw *RLResult) {
	fmt.Fprintln(w, "Fig. 17. TORCS driving score vs training steps")
	fmt.Fprintf(w, "%8s %9s %9s %9s %9s\n", "step", "Players", "Manual", "All", "Raw")
	maxLen := len(all.Curve)
	if len(manual.Curve) > maxLen {
		maxLen = len(manual.Curve)
	}
	if len(raw.Curve) > maxLen {
		maxLen = len(raw.Curve)
	}
	at := func(c []RLCurvePoint, i int) float64 {
		if len(c) == 0 {
			return 0
		}
		if i < len(c) {
			return c[i].Score
		}
		return c[len(c)-1].Score
	}
	for i := 0; i < maxLen; i++ {
		step := 0
		switch {
		case i < len(all.Curve):
			step = all.Curve[i].Step
		case i < len(manual.Curve):
			step = manual.Curve[i].Step
		case i < len(raw.Curve):
			step = raw.Curve[i].Step
		}
		fmt.Fprintf(w, "%8d %9.3f %9.3f %9.3f %9.3f\n",
			step, all.PlayerScore, at(manual.Curve, i), at(all.Curve, i), at(raw.Curve, i))
	}
	fmt.Fprintf(w, "steps to competitive: Manual=%d All=%d Raw=%d (0 = t/o)\n",
		manual.StepsToCompetitive, all.StepsToCompetitive, raw.StepsToCompetitive)
}

// TORCSFeatureAblation runs Algorithm 2 on the TORCS control loop with
// pruning enabled (the paper's thresholds) or disabled (ε₁ = ε₂ = 0,
// which still drops exact duplicates and constants), returning the
// surviving feature list — the input widths the pruning ablation
// compares.
func TORCSFeatureAblation(seed uint64, withPruning bool) []string {
	game := torcs.New(seed)
	rec := trace.NewRecorder()
	env.RunEpisode(game, func(e env.Env) int {
		rec.RecordAll(e.StateVars())
		return torcs.ScriptedPlayer(e)
	}, 400)
	cfg := extract.RLConfig{}
	if withPruning {
		cfg = extract.RLConfig{Epsilon1: 0.05, Epsilon2: 0.01}
	}
	report := extract.RL(torcs.DepGraph(), rec, torcs.TargetVars(),
		env.SortedVarNames(game), cfg)
	return report.Features["steer"]
}

// SubjectDepGraph builds the dynamic dependence graph of a named
// subject (profiling one run for the SL subjects), for inspection and
// DOT export. Known names: canny, rothwell, phylip, sphinx, flappy,
// mario, arkanoid, torcs, breakout.
func SubjectDepGraph(name string, seed uint64) (*dep.Graph, error) {
	g := dep.NewGraph()
	switch name {
	case "canny":
		sc := imaging.GenerateScene(stats.NewRNG(seed), imaging.SceneConfig{W: 32, H: 32})
		if _, err := canny.Detect(sc.Img, canny.DefaultParams(), g, nil); err != nil {
			return nil, err
		}
	case "rothwell":
		sc := imaging.GenerateScene(stats.NewRNG(seed), imaging.SceneConfig{W: 32, H: 32})
		if _, err := rothwell.Detect(sc.Img, rothwell.DefaultParams(), g, nil); err != nil {
			return nil, err
		}
	case "phylip":
		ds := phylip.Evolve(stats.NewRNG(seed), phylip.EvolveConfig{Taxa: 6, SeqLen: 80})
		if _, err := phylip.InferTree(ds.Seqs, phylip.DefaultParams(), g, nil); err != nil {
			return nil, err
		}
	case "sphinx":
		u := sphinx.Generate(stats.NewRNG(seed), sphinx.GenConfig{})
		if _, err := sphinx.Recognize(u.Samples, sphinx.DefaultParams(), g, nil); err != nil {
			return nil, err
		}
	case "flappy":
		return flappy.DepGraph(), nil
	case "mario":
		return mario.DepGraph(), nil
	case "arkanoid":
		return arkanoid.DepGraph(), nil
	case "torcs":
		return torcs.DepGraph(), nil
	case "breakout":
		return breakout.DepGraph(), nil
	default:
		return nil, fmt.Errorf("bench: unknown subject %q", name)
	}
	return g, nil
}
