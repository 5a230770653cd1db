package sim

import (
	"reflect"
	"testing"

	"dice/internal/dcache"
	"dice/internal/workloads"
)

// TestSharedSizeTablesAreInvisible pins the process-wide size tables to
// per-run semantics: a cell run on cold tables, the same cell run after
// other cells (its own algorithm's and the other algorithms') have
// filled its workload's tables give byte-identical Results — for every
// compression algorithm, on a synthetic mix and on a GAP workload whose
// cores share one table.
func TestSharedSizeTablesAreInvisible(t *testing.T) {
	t.Cleanup(workloads.DropCache)
	algs := []string{"", "fpc", "bdi"}
	cell := func(alg string, pol dcache.Policy, threshold int) Config {
		return Config{Policy: pol, Threshold: threshold, CompressAlg: alg, ScaleShift: 12, RefsPerCore: 3000}
	}
	for _, name := range []string{"mix1", "cc_twi"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(cfg Config) Result {
			t.Helper()
			res, err := Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		cold := map[string]Result{}
		for _, alg := range algs {
			workloads.DropCache()
			cold[alg] = run(cell(alg, dcache.PolicyDICE, 24))
			if cold[alg].L4.SizeMemoMisses == 0 {
				t.Fatalf("%s/%q: the cell sized no lines", name, alg)
			}
		}
		workloads.DropCache()
		for _, alg := range algs {
			run(cell(alg, dcache.PolicyTSI, 0))
			if got := run(cell(alg, dcache.PolicyDICE, 24)); !reflect.DeepEqual(got, cold[alg]) {
				t.Fatalf("%s/%q: cell on filled tables differs from cold:\n%+v\n%+v", name, alg, got, cold[alg])
			}
		}
	}
}
