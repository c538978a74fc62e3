package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"

	"fedmigr/internal/nn"
)

// value is one reported metric in the form the builder's contract asks for.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness gate's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// passResult is what one pass — one process, one workload, traced or not —
// reports. The first four fields are the contract's result line; the rest
// travels on the "detail" line for the suite to aggregate.
type passResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	Detail detail `json:"-"`
}

type detail struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Pass     int    `json:"pass"`
	// Samples is how many round-time samples round_ms_p50 is the median of.
	Samples int `json:"samples"`
	// BoxSpeed is the box speed the pass's timings were scaled by
	// (calib.go): a timing ÷ BoxSpeed is the raw time this box took.
	BoxSpeed float64 `json:"box_speed"`
	// Hashes are sha256 digests of the global model's parameter bits at
	// named points of the run; the suite demands they agree across passes.
	Hashes map[string]string `json:"hashes,omitempty"`
	// NA lists the per-layer metrics this workload does not exercise; the
	// result line carries 0 for them (their per-round cost here is zero)
	// and the suite report prints null.
	NA     []string `json:"na,omitempty"`
	Checks []check  `json:"checks"`
	Env    env      `json:"env"`
}

// env records where numbers were taken, so a row from a box that cannot
// show an effect (workers > cores) is recognisable.
type env struct {
	Cores      int    `json:"cores"`
	Gomaxprocs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Go         string `json:"go"`
}

func newResult(w *workload, cfg passConfig) *passResult {
	return &passResult{
		Correct: true,
		Metrics: make(map[string]value),
		Detail: detail{
			Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Pass: cfg.pass,
			Hashes: make(map[string]string),
			Env: env{
				Cores: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
				Workers: cfg.workers, Go: runtime.Version(),
			},
		},
	}
}

func (r *passResult) set(name, unit string, v float64) {
	r.Metrics[name] = value{Value: v, Unit: unit}
}

// gate records a correctness check; a failed one makes the pass incorrect.
func (r *passResult) gate(name string, ok bool, format string, args ...any) {
	if !addCheck(&r.Detail.Checks, name, ok, format, args...) {
		r.Correct = false
	}
}

// gateAccuracy demands the workload's accuracy floor of a full-scale pass; a
// scaled-down pass has not trained long enough for the floor to mean anything.
func (r *passResult) gateAccuracy(w *workload, cfg passConfig, acc float64) {
	r.gate("accuracy_floor", cfg.scale < 1 || acc >= w.accFloor,
		"final test accuracy %.4f below the floor %.2f", acc, w.accFloor)
}

// addCheck merges one verdict into the list — a gate applied several times
// (once per session, per pass) is one entry that holds only if every
// application held, with the first failure's detail — and returns ok.
func addCheck(checks *[]check, name string, ok bool, format string, args ...any) bool {
	detail := ""
	if !ok {
		detail = fmt.Sprintf(format, args...)
	}
	for i := range *checks {
		if c := &(*checks)[i]; c.Name == name {
			if c.OK && !ok {
				c.OK, c.Detail = false, detail
			}
			return ok
		}
	}
	*checks = append(*checks, check{Name: name, OK: ok, Detail: detail})
	return ok
}

// fillLayers completes a traced result: every declared per-layer metric the
// pass did not set is marked not-applicable and reported as 0.
func (r *passResult) fillLayers() {
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.name]; !ok {
			r.set(d.name, d.unit, 0)
			r.Detail.NA = append(r.Detail.NA, d.name)
		}
	}
}

// print writes the human-readable metric list, the detail line and — last,
// as the contract requires — the one-object result line.
func (r *passResult) print(w io.Writer) error {
	mode := "untraced"
	if r.Detail.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d %s pass: correct=%v ops=%d failed=%d samples=%d box_speed=%.3f\n",
		r.Detail.Workload, r.Detail.Seed, mode, r.Correct, r.Attempted, r.Failed, r.Detail.Samples, r.Detail.BoxSpeed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	na := make(map[string]bool, len(r.Detail.NA))
	for _, n := range r.Detail.NA {
		na[n] = true
	}
	for _, n := range names {
		m := r.Metrics[n]
		if na[n] {
			fmt.Fprintf(w, "  %-34s %14s %s\n", n, "null", m.Unit)
		} else {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	for _, c := range r.Detail.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	for n, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
	}
	d, err := json.Marshal(r.Detail)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "detail %s\n%s\n", d, line)
	return err
}

// modelHash is the sha256 of a model's parameter vector bits — the unit of
// every bit-identity gate.
func modelHash(m *nn.Sequential) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range m.ParamVector().Data() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
