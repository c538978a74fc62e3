// Package fedmigr_test holds the trainer benchmarks: a full round at the
// paper's test-bed scale across worker counts, and the telemetry off/on
// pair that bounds the instrumentation's cost. Run with:
//
//	go test -run '^$' -bench BenchmarkTrainer -benchmem .
//
// The repo's measured benchmark is cmd/fedmigr-bench; the paper artifacts
// are regenerated and timed by cmd/fedmigr-exp.
package fedmigr_test

import (
	"fmt"
	"io"
	"testing"

	fedmigr "fedmigr"
	"fedmigr/internal/telemetry"
)

// BenchmarkTrainerRound measures one federated round at the paper's
// test-bed scale (50 clients, CNN replicas) across worker counts — the
// scheduler's headline number. The workers=1 subbenchmark is the serial
// baseline; speedups are ratios against it. On a single-core host all
// worker counts collapse to the same wall time; the determinism tests
// guarantee the results are identical either way.
func BenchmarkTrainerRound(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=50/workers=%d", workers), func(b *testing.B) {
			o := fedmigr.Options{
				Scheme: fedmigr.SchemeFedAvg, Dataset: fedmigr.DatasetC10,
				Model: fedmigr.ModelC10CNN, Clients: 50, LANs: 5,
				PerClass: 25, Epochs: 1, AggEvery: 1, Seed: 1,
				Workers: workers,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fedmigr.Run(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchTelemetryOptions is the workload for the telemetry-overhead pair
// below: a full FedMigr run (migrations, aggregations, evaluations) small
// enough to iterate.
func benchTelemetryOptions() fedmigr.Options {
	return fedmigr.Options{
		Scheme: fedmigr.SchemeFedMigr, Migrator: fedmigr.MigratorGreedyEMD,
		Model: fedmigr.ModelMLP, Clients: 10, LANs: 3,
		PerClass: 10, Epochs: 10, AggEvery: 5, Seed: 1,
	}
}

// BenchmarkTrainerTelemetryOff is the trainer hot path with telemetry
// disabled (nil handles — the default every caller pays for).
func BenchmarkTrainerTelemetryOff(b *testing.B) {
	o := benchTelemetryOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fedmigr.Run(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainerTelemetryOn is the identical run with a live registry
// and a discarded JSONL sink. Comparing against ...Off bounds the cost of
// the instrumentation; the disabled path must stay within a few percent
// of pre-telemetry performance (nil-receiver no-ops).
func BenchmarkTrainerTelemetryOn(b *testing.B) {
	o := benchTelemetryOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tel := telemetry.New()
		tel.SetSink(io.Discard)
		o.Telemetry = tel
		if _, err := fedmigr.Run(o); err != nil {
			b.Fatal(err)
		}
	}
}
