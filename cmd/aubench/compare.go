package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the metric part of BENCHMARK.json.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// benchmarkFile is read from the directory aubench runs in, the
// repository root.
const benchmarkFile = "BENCHMARK.json"

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads a -json file: one record per line.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// verdict compares side b against side a for one metric. worse: b's
// median is worse than a's by more than the bound. better: b's median is
// better by more than the bound and b's quartile range lies entirely on
// the better side of a's. same: the medians differ by no more than the
// bound and each side's quartile range is within the bound of its
// median. Anything else is unresolved: the runs are too spread to tell.
func verdict(a, b []float64, lowerBetter bool, bound float64) (string, float64) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	rel := (bm - am) / math.Abs(am)
	if !lowerBetter {
		rel = -rel
	}
	spread := func(q1, m, q3 float64) float64 { return (q3 - q1) / math.Abs(m) }
	disjoint := b3 < a1
	if !lowerBetter {
		disjoint = b1 > a3
	}
	switch {
	case rel > bound:
		return "worse", rel
	case rel < -bound && disjoint:
		return "better", rel
	case math.Abs(rel) <= bound && spread(a1, am, a3) <= bound && spread(b1, bm, b3) <= bound:
		return "same", rel
	}
	return "unresolved", rel
}

// outcomes counts one side's operations and runs of one workload.
type outcomes struct {
	runs, incorrect   int
	attempted, failed int
}

// failVerdict compares side b's failures against side a's: worse when b
// has a larger share of incorrect runs or of failed operations. Latency
// metrics count a failed request as missing every limit, but a metric
// below the failed share does not see it, so failures are judged here.
func failVerdict(a, b outcomes) string {
	share := func(n, of int) float64 { return float64(n) / float64(max(of, 1)) }
	if share(b.incorrect, b.runs) > share(a.incorrect, a.runs) || share(b.failed, b.attempted) > share(a.failed, a.attempted) {
		return "worse"
	}
	return "same"
}

// runCompare prints, for each workload, each side's failures and, for
// each end-to-end metric, each side's quartiles over its runs, each with
// a verdict. It exits 1 when b fails more or any metric is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "aubench: -compare needs two -json files: aubench -compare a.jsonl b.jsonl")
		return 2
	}
	spec, err := loadSpec(benchmarkFile)
	if err != nil {
		fmt.Fprintf(stderr, "aubench: %v\n", err)
		return 2
	}
	var (
		sides  [2]map[string]map[string][]float64 // workload → metric → values
		counts [2]map[string]outcomes             // workload → outcomes
	)
	for k, path := range args {
		recs, err := loadRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "aubench: %v\n", err)
			return 2
		}
		sides[k], counts[k] = map[string]map[string][]float64{}, map[string]outcomes{}
		for _, r := range recs {
			if r.Traced {
				continue
			}
			c := counts[k][r.Workload]
			c.runs++
			c.attempted += r.Attempted
			c.failed += r.Failed
			if !r.Correct {
				c.incorrect++
			}
			counts[k][r.Workload] = c
			if sides[k][r.Workload] == nil {
				sides[k][r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				if v, ok := m["value"].(float64); ok {
					sides[k][r.Workload][name] = append(sides[k][r.Workload][name], v)
				}
			}
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-8s %-16s %5s %34s %34s %8s  %s\n", "workload", "metric", "runs", "a: q1 / median / q3", "b: q1 / median / q3", "b vs a", "verdict")
	for _, w := range workloads {
		a, b := counts[0][w.name], counts[1][w.name]
		if a.runs == 0 || b.runs == 0 {
			continue
		}
		v := failVerdict(a, b)
		fmt.Fprintf(stdout, "%-8s %-16s %2d/%-2d %34s %34s %8s  %s\n", w.name, "failed", a.runs, b.runs,
			fmt.Sprintf("%d of %d ops, %d runs incorrect", a.failed, a.attempted, a.incorrect),
			fmt.Sprintf("%d of %d ops, %d runs incorrect", b.failed, b.attempted, b.incorrect), "", v)
		if v == "worse" {
			code = 1
		}
		for _, m := range spec.EndToEnd {
			a, b := sides[0][w.name][m.Name], sides[1][w.name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, rel := verdict(a, b, m.Better == "lower", m.Bound)
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			fmt.Fprintf(stdout, "%-8s %-16s %2d/%-2d %10.5g / %10.5g / %10.5g %10.5g / %10.5g / %10.5g %+7.1f%%  %s (bound %.0f%%)\n",
				w.name, m.Name, len(a), len(b), a1, am, a3, b1, bm, b3, 100*rel, v, 100*m.Bound)
			if v == "worse" {
				code = 1
			}
		}
	}
	return code
}
