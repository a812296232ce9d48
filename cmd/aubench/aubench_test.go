package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/autonomizer/autonomizer/internal/stats"
)

// tinySizes shrinks a run so every phase still executes: training passes
// the replay warm-up, each game gets a checked deployed frame, and each
// write phase runs.
func tinySizes(in input) sizes {
	sz := defaultSizes(in)
	sz.TrainFrames, sz.TrainSlice, sz.TrainPlain = warmupTransitions+8, 2, 50
	sz.DeploySlice, sz.DeployPlain, sz.MinDeployRounds, sz.KeepStates = checkEvery+1, 50, 2, 8
	sz.ServeRounds = 1
	sz.PeakInFlight, sz.PeakSlice, sz.PeakPlain, sz.MinPeakSlices = 8, 10*time.Millisecond, 200, 1
	sz.ReloadSlice, sz.ObserveSlice, sz.WritePlain, sz.MinWrites = 2, 4, 200, 2
	sz.SetupPerPhase, sz.ProbeReps, sz.ProbeStates = 0, 1, 4
	return sz
}

// runTiny runs aubench on both workloads at tiny sizes and returns the
// metric lines ("<workload> <metric>" → unit) and the final JSON object.
func runTiny(t *testing.T, extra ...string) (map[string]string, map[string]any) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"-workload", "all", "-seed", "3", "-seconds", "0.7"}, extra...)
	if code := run(args, &stdout, &stderr, tinySizes); code != 0 {
		t.Fatalf("aubench %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	units := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) == 4 && f[1] != "digest" {
			units[f[0]+" "+f[1]] = f[3]
		}
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	return units, last
}

func TestSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	check := func(traced bool, units map[string]string, last map[string]any, want []specMetric) {
		t.Helper()
		if last["correct"] != true || last["failed"] != 0.0 || last["attempted"].(float64) < 1 {
			t.Errorf("traced=%v: result %v, want correct with no failures", traced, last)
		}
		metrics := last["metrics"].(map[string]any)
		for _, w := range workloads {
			for _, m := range want {
				if got, ok := units[w.name+" "+m.Name]; !ok || got != m.Unit {
					t.Errorf("traced=%v: %s %s printed with unit %q, want %q", traced, w.name, m.Name, got, m.Unit)
				}
				v, ok := metrics[w.name+"/"+m.Name].(map[string]any)
				if !ok || v["unit"] != m.Unit {
					t.Errorf("traced=%v: JSON lacks %s/%s in %s", traced, w.name, m.Name, m.Unit)
					continue
				}
				if f, ok := v["value"].(float64); !ok || math.IsNaN(f) || math.IsInf(f, 0) {
					t.Errorf("traced=%v: %s/%s = %v", traced, w.name, m.Name, v["value"])
				}
			}
		}
	}
	units, last := runTiny(t)
	check(false, units, last, spec.EndToEnd)

	spans := filepath.Join(t.TempDir(), "spans.json")
	units, last = runTiny(t, "-trace", "1", "-trace-out", spans)
	check(true, units, last, spec.PerLayer)

	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(tf.Spans) == 0 || len(tf.Aggregates["deploy"]) == 0 || len(tf.Aggregates["heavy"]) == 0 {
		t.Fatalf("trace has %d spans and aggregates for %d phases", len(tf.Spans), len(tf.Aggregates))
	}
	byID := map[uint64]spanRecord{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Trace != s.Trace || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %+v is not inside its parent %+v", s, p)
		}
	}
	for phase, aggs := range tf.Aggregates {
		for name, a := range aggs {
			if a.Count < 1 || a.Self < 0 || a.Self > a.Total {
				t.Errorf("%s %s: aggregate %+v", phase, name, a)
			}
		}
	}
}

func TestScheduleDependsOnlyOnSeed(t *testing.T) {
	a := schedule(stats.NewRNG(7), 1100, time.Second, 50)
	b := schedule(stats.NewRNG(7), 1100, time.Second, 50)
	c := schedule(stats.NewRNG(8), 1100, time.Second, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	if n := len(a); n < 950 || n > 1250 {
		t.Fatalf("%d arrivals in 1 s at 1100/s", n)
	}
}

// TestOpenLoopCountsStalls injects a 20 ms server stall and checks that
// every request due during it carries the stall in its latency: the
// generator keeps sending on schedule and times each request from when
// it was due, so the stall is not hidden (no coordinated omission).
func TestOpenLoopCountsStalls(t *testing.T) {
	const stallAt, stallFor = 60 * time.Millisecond, 20 * time.Millisecond
	arr := schedule(stats.NewRNG(3), 2000, 150*time.Millisecond, 1)
	o := &oracle{inputs: [][]float64{{1}}, want: [2][][]float64{{{2}}, {{2}}}}
	var (
		gate    sync.RWMutex
		once    sync.Once
		stalled time.Duration // due time of the request that stalled
	)
	send := func(ctx context.Context, a arrival) ([]float64, error) {
		if a.at >= stallAt {
			once.Do(func() {
				stalled = a.at
				gate.Lock()
				time.Sleep(stallFor)
				gate.Unlock()
			})
		}
		gate.RLock()
		defer gate.RUnlock()
		return []float64{2}, nil
	}
	var res openResult
	openLoop(context.Background(), arr, send, o, nil, &res)
	if res.failed != 0 || res.mismatched != 0 || len(res.predictMS) != len(arr) {
		t.Fatalf("failed %d, mismatched %d, %d latencies for %d requests", res.failed, res.mismatched, len(res.predictMS), len(arr))
	}
	during := 0
	for i, a := range arr {
		if a.at < stalled || a.at >= stalled+stallFor {
			continue
		}
		during++
		// The stall ends no earlier than stallFor after the stalling
		// request was due; predictMS is in arrival order here.
		if want := ms(stalled + stallFor - a.at); res.predictMS[i] < want {
			t.Errorf("request due at %v: latency %.3f ms, want at least %.3f ms", a.at, res.predictMS[i], want)
		}
	}
	if during < 10 {
		t.Fatalf("only %d requests were due during the stall", during)
	}
}

// TestOpenLoopFailuresMissTheLimit checks that a failed or wrong answer
// enters the latency sample as +Inf, so shedding requests raises the
// quantiles instead of lowering them.
func TestOpenLoopFailuresMissTheLimit(t *testing.T) {
	arr := schedule(stats.NewRNG(5), 2000, 50*time.Millisecond, 2)
	o := &oracle{inputs: [][]float64{{0}, {1}}, want: [2][][]float64{{{2}, {3}}, {{2}, {3}}}}
	send := func(ctx context.Context, a arrival) ([]float64, error) {
		if a.input == 1 {
			return nil, errors.New("shed")
		}
		return []float64{2}, nil
	}
	var res openResult
	openLoop(context.Background(), arr, send, o, nil, &res)
	failed := 0
	for i, a := range arr {
		if a.input == 1 {
			failed++
			if !math.IsInf(res.predictMS[i], 1) {
				t.Errorf("failed request %d has latency %v, want +Inf", i, res.predictMS[i])
			}
		}
	}
	if res.failed != failed || failed == 0 || len(res.predictMS) != len(arr) {
		t.Fatalf("failed %d of %d (want %d), %d latencies", res.failed, len(arr), failed, len(res.predictMS))
	}
	if q := quantile(res.predictMS, 1-float64(failed)/float64(len(arr))/2); !math.IsInf(q, 1) {
		t.Fatalf("a quantile above the answered share is %v, want +Inf", q)
	}
}

func TestFailVerdict(t *testing.T) {
	clean := outcomes{runs: 5, attempted: 1000}
	for _, tc := range []struct {
		a, b outcomes
		want string
	}{
		{clean, clean, "same"},
		{clean, outcomes{runs: 5, attempted: 1000, failed: 1}, "worse"},
		{clean, outcomes{runs: 5, incorrect: 1, attempted: 1000}, "worse"},
		{outcomes{runs: 5, attempted: 1000, failed: 4}, outcomes{runs: 5, attempted: 2000, failed: 4}, "same"},
	} {
		if got := failVerdict(tc.a, tc.b); got != tc.want {
			t.Errorf("failVerdict(%+v, %+v) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	for _, tc := range []struct {
		b           []float64
		lowerBetter bool
		want        string
	}{
		{[]float64{100, 101, 99, 100, 102, 98}, true, "same"},
		{[]float64{120, 121, 119, 120}, true, "worse"},
		{[]float64{80, 81, 79, 80}, true, "better"},
		{[]float64{80, 81, 79, 80}, false, "worse"},
		{[]float64{60, 140, 100, 70, 130}, true, "unresolved"},
	} {
		if got, _ := verdict(base, tc.b, tc.lowerBetter, 0.10); got != tc.want {
			t.Errorf("verdict(%v, lowerBetter=%v) = %s, want %s", tc.b, tc.lowerBetter, got, tc.want)
		}
	}
}
