package experiments

import (
	"testing"

	"dice/internal/sim"
	"dice/internal/workloads"
)

// gapMatrixRefsPerCore is the per-core budget of each simulation in the
// GAP matrix benchmarks.
const gapMatrixRefsPerCore = 4000

// gapMatrixConfigs are the 8 configurations one GAP matrix op runs.
var gapMatrixConfigs = []string{"base", "tsi", "nsi", "bai", "dice", "scc", "dice-knl", "dice-t32"}

// BenchmarkGAPMatrixCold runs one GAP workload under 8 configurations
// through a fresh runner per op, dropping the artifact cache before
// every simulation, so each one rebuilds the graph and kernel trace.
// Against BenchmarkGAPMatrixWarm, it is the artifact cache's headline
// wall-clock ratio.
func BenchmarkGAPMatrixCold(b *testing.B) { benchGAPMatrix(b, false) }

// BenchmarkGAPMatrixWarm runs the same matrix with the artifact cache
// warmed once up front.
func BenchmarkGAPMatrixWarm(b *testing.B) { benchGAPMatrix(b, true) }

func benchGAPMatrix(b *testing.B, warm bool) {
	w, err := workloads.ByName("cc_twi")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(workloads.DropCache)
	if warm {
		w.Warm(sim.Config{}.EffectiveScale())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh runner per op: its per-key memoization must not
		// absorb the work the artifact cache is measured on.
		r := NewRunner(gapMatrixRefsPerCore)
		for _, cfg := range gapMatrixConfigs {
			if !warm {
				workloads.DropCache()
			}
			r.Run(cfg, w)
		}
	}
}
