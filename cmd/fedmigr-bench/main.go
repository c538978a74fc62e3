// Command fedmigr-bench is the repo's one benchmark: four named workloads,
// eight end-to-end metrics and a per-layer trace of a FedMigr round, all
// measured from outside through the packages' public functions. See
// README.md in this directory.
//
//	go run ./cmd/fedmigr-bench -seed 1                  # whole suite
//	go run ./cmd/fedmigr-bench -workload net_wire_heavy # one untraced pass
//	go run ./cmd/fedmigr-bench -compare old.json new.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		seed        = flag.Int64("seed", 1, "workload seed: the only thing that varies the generated inputs")
		name        = flag.String("workload", "", "run one pass of this workload in-process and print its result line (default: the whole suite)")
		seconds     = flag.Float64("seconds", runSeconds, "nominal timed window; scales every round count by seconds/10")
		trace       = flag.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		pass        = flag.Int("pass", 0, "with -workload: the pass index recorded in the output")
		passes      = flag.Int("passes", 3, "untraced passes per workload in a suite run")
		traceOut    = flag.String("trace-out", "", "write the traced passes' spans here as JSON lines")
		jsonOut     = flag.String("json", "", "write the suite report here as JSON")
		compare     = flag.Bool("compare", false, "compare two suite reports: -compare old.json new.json")
		repeatCheck = flag.Bool("repeat-check", false, "run the suite twice on this tree and compare the two reports")
	)
	flag.Parse()
	if err := run(*seed, *name, *seconds, *trace, *pass, *passes, *traceOut, *jsonOut, *compare, *repeatCheck); err != nil {
		fmt.Fprintln(os.Stderr, "fedmigr-bench:", err)
		os.Exit(1)
	}
}

func run(seed int64, name string, seconds float64, trace, pass, passes int, traceOut, jsonOut string, compare, repeatCheck bool) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	switch {
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two report files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case repeatCheck:
		return repeatSuite(seed, seconds, passes, jsonOut)
	case name == "":
		_, err := runSuite(seed, seconds, passes, traceOut, jsonOut)
		return err
	}
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	// Closed-loop load from one process: W workers on W procs, capped at 4
	// so a big box does not change what the workload is.
	workers := runtime.NumCPU()
	if workers > 4 {
		workers = 4
	}
	runtime.GOMAXPROCS(workers)
	cfg := passConfig{
		seed: seed, workers: workers, scale: seconds / runSeconds,
		trace: trace != 0, pass: pass,
	}
	res, err := runPass(w, cfg, traceOut)
	if err != nil {
		return err
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: correctness gate failed", w.name)
	}
	return nil
}

// runPass runs one pass of one workload in this process.
func runPass(w *workload, cfg passConfig, traceOut string) (*passResult, error) {
	cfg.cal = newCalibrator(cfg.workers)
	defer cfg.cal.Close()
	if !cfg.trace {
		if w.sim != nil {
			return simPass(w, cfg)
		}
		return netPass(w, cfg)
	}
	cfg.spans = &spanStore{workload: w.name, pass: cfg.pass}
	var res *passResult
	var err error
	if w.sim != nil {
		res, err = simTrace(w, cfg)
	} else {
		res, err = netTrace(w, cfg)
	}
	if err != nil {
		return nil, err
	}
	res.fillLayers()
	if traceOut != "" {
		if err := cfg.spans.appendTo(traceOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}
