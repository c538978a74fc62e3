package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile mirrors the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkFileMatchesTables holds BENCHMARK.json to the driver's own
// tables, so the declaration and the program cannot drift apart.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the driver's nominal window is %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the driver %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, %d implemented, limit 16", len(bf.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(!d.lowerBest) || m.Bound == nil || *m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the driver %+v", i, m, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("end-to-end metric %q / unit %q: malformed or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if len(bf.PerLayer) != len(perLayer) || len(bf.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d implemented, limit 128", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higherBest) || m.Bound != nil {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the driver %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer metric %q / unit %q: malformed or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

// smokeWorkloads are the four workloads shrunk roughly fifty-fold — less
// data, fewer clients, a narrower net model, and (through the pass scale)
// fewer rounds — so the whole path runs in-process in seconds.
func smokeWorkloads() []workload {
	out := make([]workload, len(workloads))
	for i, w := range workloads {
		if w.sim != nil {
			s := *w.sim
			if s.opts.PerClass > 100 {
				s.opts.PerClass /= 10
			}
			if s.opts.Clients > 1000 {
				s.opts.Clients /= 50
			}
			w.sim = &s
		} else {
			n := *w.net
			n.hidden = 32
			w.net = &n
		}
		out[i] = w
	}
	return out
}

// TestSmoke runs an untraced and a traced pass of every workload at smoke
// scale and validates the output against BENCHMARK.json: every declared
// metric present with its unit, ops and failed present, the gates green.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	defer func(a, b time.Duration) { benchMinTime, benchBudget = a, b }(benchMinTime, benchBudget)
	benchMinTime, benchBudget = time.Millisecond, 5*time.Millisecond

	for _, w := range smokeWorkloads() {
		w := w
		for _, trace := range []bool{false, true} {
			cfg := passConfig{seed: 1, workers: 2, scale: 0.02, trace: trace}
			res, err := runPass(&w, cfg, "")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			for _, c := range res.Detail.Checks {
				if !c.OK {
					t.Errorf("%s trace=%v: gate %s failed: %s", w.name, trace, c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v ops=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			declared := bf.EndToEnd
			if trace {
				declared = bf.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.name, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, declared %q", w.name, d.Name, m.Unit, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			back, err := parsePassOutput(out.String())
			if err != nil {
				t.Fatalf("%s trace=%v: printed output does not parse: %v", w.name, trace, err)
			}
			if back.Attempted != res.Attempted || back.Detail.Workload != w.name || len(back.Metrics) != len(res.Metrics) {
				t.Errorf("%s trace=%v: output did not survive a print/parse round trip", w.name, trace)
			}
		}
	}
}
