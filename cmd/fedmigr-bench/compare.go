package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved (spread > bound)"
)

// judge applies a metric's direction and bound to an old and a current median.
// spread is the wider of the two runs' pass-to-pass spreads. A row regresses
// when the new value is worse by more than both the bound and the noise; a
// row that does not regress but whose noise exceeds the bound cannot be
// called unchanged and is unresolved. exact rows (same seed on both sides)
// must be equal: any worsening regresses, whatever its size.
func judge(d metricDef, old, cur, spread float64, exact bool) (worse float64, verdict string) {
	if old != 0 {
		worse = (cur - old) / math.Abs(old)
	} else if cur != old {
		worse = math.Inf(1)
		if cur < old {
			worse = math.Inf(-1)
		}
	}
	if !d.lowerBest {
		worse = -worse
	}
	switch {
	case exact && worse > 0:
		return worse, verdictRegressed
	case exact:
		return worse, verdictOK
	case worse > d.bound && worse > spread:
		return worse, verdictRegressed
	case spread > d.bound:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// compareReports prints one row per (workload, end-to-end metric) and
// returns how many regressed. A workload missing from, or incorrect in, the
// new report counts as a regression.
func compareReports(w io.Writer, old, cur *report) int {
	regressions := 0
	sameSeed := old.Seed == cur.Seed && old.Seconds == cur.Seconds
	fmt.Fprintf(w, "compare %s (seed %d) -> %s (seed %d)\n", old.Commit, old.Seed, cur.Commit, cur.Seed)
	fmt.Fprintf(w, "%-18s %-26s %14s %14s %9s %7s %7s  %s\n",
		"workload", "metric", "old", "new", "worse", "bound", "spread", "verdict")
	for _, ow := range old.Workloads {
		var nw *workloadReport
		for i := range cur.Workloads {
			if cur.Workloads[i].Name == ow.Name {
				nw = &cur.Workloads[i]
			}
		}
		if nw == nil || !nw.Correct {
			fmt.Fprintf(w, "%-18s missing or incorrect in the new report: %s\n", ow.Name, verdictRegressed)
			regressions++
			continue
		}
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.name], nw.EndToEnd[d.name]
			sp := math.Max(o.Spread, n.Spread)
			worse, verdict := judge(d, o.Value, n.Value, sp, d.exact && sameSeed)
			if verdict == verdictRegressed {
				regressions++
			}
			fmt.Fprintf(w, "%-18s %-26s %14.6g %14.6g %+8.2f%% %6.1f%% %6.1f%%  %s\n",
				ow.Name, d.name, o.Value, n.Value, worse*100, d.bound*100, sp*100, verdict)
		}
	}
	return regressions
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != 1 {
		return nil, fmt.Errorf("%s: report schema %d, this build reads 1", path, rep.Schema)
	}
	return rep, nil
}

// compareFiles is -compare: exit non-zero on any regression.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadReport(newPath)
	if err != nil {
		return err
	}
	if n := compareReports(w, old, cur); n > 0 {
		return fmt.Errorf("%d regressions", n)
	}
	return nil
}
