package main

import (
	"io"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{name: "round_ms_p50", lowerBest: true, bound: 0.10}
	higher := metricDef{name: "samples_per_s", lowerBest: false, bound: 0.10}
	count := metricDef{name: "c2s_bytes_per_round", lowerBest: true, bound: 0.001, exact: true}
	cases := []struct {
		name         string
		d            metricDef
		old, cur, sp float64
		exact        bool
		verdict      string
		worseAtLeast float64
		worseAtMost  float64
	}{
		{"lower-better, slower past bound", lower, 100, 115, 0.02, false, verdictRegressed, 0.14, 0.16},
		{"lower-better, slower within bound", lower, 100, 105, 0.02, false, verdictOK, 0.04, 0.06},
		{"lower-better, faster", lower, 100, 50, 0.02, false, verdictOK, -0.51, -0.49},
		{"higher-better, dropped past bound", higher, 1000, 850, 0.02, false, verdictRegressed, 0.14, 0.16},
		{"higher-better, rose", higher, 1000, 1300, 0.02, false, verdictOK, -0.31, -0.29},
		{"noise wider than bound, small move", lower, 100, 104, 0.15, false, verdictUnresolved, 0.03, 0.05},
		{"noise wider than bound hides a move past it", lower, 100, 112, 0.15, false, verdictUnresolved, 0.11, 0.13},
		{"move past both bound and noise", lower, 100, 130, 0.15, false, verdictRegressed, 0.29, 0.31},
		{"exact count, equal", count, 1560640, 1560640, 0, true, verdictOK, 0, 1e-12},
		{"exact count, one byte more", count, 1560640, 1560641, 0, true, verdictRegressed, 0, 1e-5},
		{"exact count, fewer bytes", count, 1560640, 1000000, 0, true, verdictOK, -1, 0},
		{"count across different seeds uses its bound", count, 1560640, 1560641, 0, false, verdictOK, 0, 1e-5},
	}
	for _, c := range cases {
		worse, verdict := judge(c.d, c.old, c.cur, c.sp, c.exact)
		if verdict != c.verdict {
			t.Errorf("%s: verdict %q, want %q", c.name, verdict, c.verdict)
		}
		if worse < c.worseAtLeast || worse > c.worseAtMost {
			t.Errorf("%s: worse = %v, want in [%v, %v]", c.name, worse, c.worseAtLeast, c.worseAtMost)
		}
	}
}

func TestCompareReportsCountsRegressions(t *testing.T) {
	row := func(round float64, bytes float64) workloadReport {
		wr := workloadReport{Name: "w", Correct: true, EndToEnd: map[string]e2eValue{}}
		for _, d := range endToEnd {
			wr.EndToEnd[d.name] = e2eValue{Value: 1, Unit: d.unit}
		}
		wr.EndToEnd["round_ms_p50"] = e2eValue{Value: round, Unit: "ms"}
		wr.EndToEnd["c2s_bytes_per_round"] = e2eValue{Value: bytes, Unit: "B"}
		return wr
	}
	rep := func(w workloadReport) *report {
		return &report{Schema: 1, Seed: 1, Seconds: runSeconds, Workloads: []workloadReport{w}}
	}
	if n := compareReports(io.Discard, rep(row(10, 100)), rep(row(10.5, 100))); n != 0 {
		t.Errorf("move within bound: %d regressions, want 0", n)
	}
	if n := compareReports(io.Discard, rep(row(10, 100)), rep(row(14, 101))); n != 2 {
		t.Errorf("slower and one more byte: %d regressions, want 2", n)
	}
	bad := row(10, 100)
	bad.Correct = false
	if n := compareReports(io.Discard, rep(row(10, 100)), rep(bad)); n != 1 {
		t.Errorf("incorrect new report: %d regressions, want 1", n)
	}
	if n := compareReports(io.Discard, rep(row(10, 100)), &report{Schema: 1, Seed: 1}); n != 1 {
		t.Errorf("workload missing: %d regressions, want 1", n)
	}
}
