package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// report is the suite's output: one schema for every workload and metric.
type report struct {
	Schema    int              `json:"schema"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Passes    int              `json:"passes"`
	Commit    string           `json:"commit"`
	Env       env              `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name    string `json:"name"`
	Correct bool   `json:"correct"`
	Ops     int    `json:"ops"`
	Failed  int    `json:"failed"`
	// EndToEnd values are medians over the untraced passes.
	EndToEnd map[string]e2eValue `json:"end_to_end"`
	// PerLayer comes from the traced pass; null marks a metric the
	// workload does not exercise.
	PerLayer map[string]*value `json:"per_layer"`
	Checks   []check           `json:"checks"`
}

type e2eValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is (max−min)/median across the passes.
	Spread  float64   `json:"spread"`
	Passes  []float64 `json:"passes"`
	Samples int       `json:"samples"`
}

// runChild runs one pass in a fresh child process — so set-up time,
// allocation counts and peak RSS start clean — and parses what it printed.
func runChild(self string, w *workload, seed int64, seconds float64, trace bool, pass int, traceOut string) (*passResult, error) {
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-pass", strconv.Itoa(pass),
	}
	if trace {
		args = append(args, "-trace", "1")
		if traceOut != "" {
			args = append(args, "-trace-out", traceOut)
		}
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	res, err := parsePassOutput(out.String())
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.name, pass, runErr)
		}
		return nil, fmt.Errorf("%s pass %d: %w", w.name, pass, err)
	}
	return res, nil
}

// parsePassOutput reads a pass's result line (the last line) and its detail
// line out of what the pass printed.
func parsePassOutput(out string) (*passResult, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("pass printed no result")
	}
	res := &passResult{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	d, ok := strings.CutPrefix(lines[len(lines)-2], "detail ")
	if !ok {
		return nil, fmt.Errorf("pass printed no detail line")
	}
	if err := json.Unmarshal([]byte(d), &res.Detail); err != nil {
		return nil, fmt.Errorf("detail line: %w", err)
	}
	return res, nil
}

// commit names the tree the numbers belong to, when git can say.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSuite runs every workload as `passes` untraced passes plus one traced
// pass. Passes interleave round-robin across workloads (W1,W2,W3,W4,W1,…) so
// a noisy neighbour smears over all workloads instead of sinking one.
func runSuite(seed int64, seconds float64, passes int, traceOut, jsonOut string) (*report, error) {
	if passes < 1 {
		return nil, fmt.Errorf("-passes must be at least 1")
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if traceOut != "" {
		if err := os.WriteFile(traceOut, nil, 0o644); err != nil {
			return nil, err
		}
	}
	untraced := make([][]*passResult, len(workloads))
	traced := make([]*passResult, len(workloads))
	for pass := 0; pass <= passes; pass++ {
		for i := range workloads {
			w := &workloads[i]
			res, err := runChild(self, w, seed, seconds, pass == passes, pass, traceOut)
			if err != nil {
				return nil, err
			}
			mode := "untraced"
			if pass == passes {
				traced[i] = res
				mode = "traced"
			} else {
				untraced[i] = append(untraced[i], res)
			}
			fmt.Fprintf(os.Stderr, "pass %d/%d %-18s %-8s correct=%v\n", pass+1, passes+1, w.name, mode, res.Correct)
		}
	}
	rep := &report{
		Schema: 1, Seed: seed, Seconds: seconds, Passes: passes,
		Commit: commit(), Env: traced[0].Detail.Env,
	}
	for i := range workloads {
		rep.Workloads = append(rep.Workloads, aggregate(&workloads[i], untraced[i], traced[i]))
	}
	rep.print(os.Stdout)
	if jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	for _, w := range rep.Workloads {
		if !w.Correct {
			return rep, fmt.Errorf("%s: correctness gate failed", w.Name)
		}
	}
	return rep, nil
}

// aggregate folds one workload's passes into its report row: medians and
// spreads of the end-to-end metrics, the traced pass's layer metrics, and the
// cross-pass correctness gates no single pass can check.
func aggregate(w *workload, untraced []*passResult, traced *passResult) workloadReport {
	wr := workloadReport{
		Name: w.name, Correct: traced.Correct,
		EndToEnd: make(map[string]e2eValue), PerLayer: make(map[string]*value),
	}
	gate := func(name string, ok bool, format string, args ...any) {
		if !addCheck(&wr.Checks, name, ok, format, args...) {
			wr.Correct = false
		}
	}
	for _, p := range append(append([]*passResult(nil), untraced...), traced) {
		wr.Correct = wr.Correct && p.Correct
		for _, c := range p.Detail.Checks {
			if !c.OK {
				c.Name = fmt.Sprintf("pass%d.%s", p.Detail.Pass, c.Name)
				wr.Checks = append(wr.Checks, c)
			}
		}
	}
	first := untraced[0]
	for _, p := range untraced {
		wr.Ops += p.Attempted
		wr.Failed += p.Failed
		for at, h := range first.Detail.Hashes {
			gate("hash_"+at+"_across_passes", p.Detail.Hashes[at] == h,
				"pass %d reached model %.12s at %q, pass 0 %.12s", p.Detail.Pass, p.Detail.Hashes[at], at, h)
		}
	}
	// The traced pass ran telemetry-on at half the rounds (sims: compare at
	// the untraced passes' midpoint) or at full session length (net).
	for at, h := range traced.Detail.Hashes {
		gate("hash_"+at+"_traced_vs_untraced", first.Detail.Hashes[at] == h,
			"traced pass reached model %.12s at %q, untraced pass 0 %.12s", h, at, first.Detail.Hashes[at])
	}
	for _, d := range endToEnd {
		var vals []float64
		for _, p := range untraced {
			vals = append(vals, p.Metrics[d.name].Value)
		}
		wr.EndToEnd[d.name] = e2eValue{
			Value: median(vals), Unit: d.unit, Spread: spread(vals),
			Passes: vals, Samples: first.Detail.Samples,
		}
		if d.exact {
			gate(d.name+"_exact", spread(vals) == 0, "%s differs across passes: %v", d.name, vals)
		}
	}
	na := make(map[string]bool)
	for _, n := range traced.Detail.NA {
		na[n] = true
	}
	for _, d := range perLayer {
		if m, ok := traced.Metrics[d.name]; ok && !na[d.name] {
			wr.PerLayer[d.name] = &value{Value: m.Value, Unit: m.Unit}
		} else {
			wr.PerLayer[d.name] = nil
		}
	}
	return wr
}

// print writes the report as text: every metric by name with its unit.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "fedmigr-bench seed=%d seconds=%g passes=%d commit=%s cores=%d gomaxprocs=%d workers=%d %s\n",
		rep.Seed, rep.Seconds, rep.Passes, rep.Commit, rep.Env.Cores, rep.Env.Gomaxprocs, rep.Env.Workers, rep.Env.Go)
	for _, wl := range rep.Workloads {
		fmt.Fprintf(w, "\n%s: correct=%v ops=%d failed=%d\n", wl.Name, wl.Correct, wl.Ops, wl.Failed)
		for _, d := range endToEnd {
			m := wl.EndToEnd[d.name]
			fmt.Fprintf(w, "  %-34s %14.6g %-8s spread=%.4f passes=%d samples/pass=%d\n",
				d.name, m.Value, m.Unit, m.Spread, len(m.Passes), m.Samples)
		}
		names := make([]string, 0, len(wl.PerLayer))
		for n := range wl.PerLayer {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if m := wl.PerLayer[n]; m != nil {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
			} else {
				fmt.Fprintf(w, "  %-34s %14s\n", n, "null")
			}
		}
		for _, c := range wl.Checks {
			if !c.OK {
				fmt.Fprintf(w, "  FAILED %s: %s\n", c.Name, c.Detail)
			}
		}
	}
}

// repeatSuite runs the whole suite twice on the same tree and compares the
// two reports: the benchmark's own bounds must hold against itself.
func repeatSuite(seed int64, seconds float64, passes int, jsonOut string) error {
	var reps [2]*report
	for i := range reps {
		out := ""
		if jsonOut != "" {
			out = jsonOut
			if i == 1 {
				out += ".repeat"
			}
		}
		rep, err := runSuite(seed, seconds, passes, "", out)
		if err != nil {
			return err
		}
		reps[i] = rep
	}
	fmt.Println()
	if n := compareReports(os.Stdout, reps[0], reps[1]); n > 0 {
		return fmt.Errorf("repeat check: %d regressions between two runs of the same tree", n)
	}
	return nil
}
