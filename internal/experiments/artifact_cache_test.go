package experiments

import (
	"reflect"
	"testing"

	"dice/internal/sim"
	"dice/internal/workloads"
)

// Artifact-cache integration tests: many configs sharing one GAP
// workload through the process-wide cache must produce Results
// byte-identical to cold per-run builds, under concurrency (run these
// with -race via the CI race job), and the cache must actually be hit.

// cacheTestScale keeps the GAP graph build small; the runner still
// exercises the full warm-then-fan-out path.
const cacheTestScale = 12

// resetArtifactCache gives the test a cold cache and empties it again
// afterwards.
func resetArtifactCache(t *testing.T) {
	t.Helper()
	workloads.DropCache()
	t.Cleanup(workloads.DropCache)
}

// TestCachedGAPConfigsMatchColdBuilds runs the same GAP workload under
// 8 concurrent configs through the artifact cache and asserts every
// Result is identical to a cold-build reference of the same cell.
func TestCachedGAPConfigsMatchColdBuilds(t *testing.T) {
	resetArtifactCache(t)
	w, err := workloads.ByName("cc_twi")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []string{"base", "tsi", "nsi", "bai", "dice", "scc", "dice-knl", "dice-t32"}

	// Cold reference: serial, the cache dropped before each cell so
	// every Run builds from scratch.
	cold := detRunner(1)
	cold.Scale = cacheTestScale
	coldRes := map[string]sim.Result{}
	for _, cfg := range cfgs {
		workloads.DropCache()
		coldRes[cfg] = cold.Run(cfg, w)
	}

	// Cached run: 8 workers race through one warmed entry.
	workloads.DropCache()
	cached := detRunner(8)
	cached.Scale = cacheTestScale
	cached.Prefetch(cached.namedCells(cfgs, []workloads.Workload{w})...)

	if _, m := workloads.CacheStats(); m != 1 {
		t.Fatalf("8 configs x 1 workload performed %d artifact builds, want 1", m)
	}
	for _, cfg := range cfgs {
		a, b := coldRes[cfg], cached.Run(cfg, w)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s|%s: cold and cached results differ:\n%+v\nvs\n%+v",
				cfg, w.Name, a, b)
		}
	}
}

// TestArtifactCacheSmoke is the CI bench-smoke guard: running a GAP
// experiment cell matrix twice in one process must build each artifact
// once — the second pass must be served entirely from the cache. A
// regression that silently stops caching (key drift, accidental
// disable) fails here before it costs wall-clock in real matrices.
func TestArtifactCacheSmoke(t *testing.T) {
	resetArtifactCache(t)
	w, err := workloads.ByName("pr_twi")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []string{"base", "dice"}

	first := detRunner(2)
	first.Scale = cacheTestScale
	first.Prefetch(first.namedCells(cfgs, []workloads.Workload{w})...)
	_, missesAfterFirst := workloads.CacheStats()
	if missesAfterFirst != 1 {
		t.Fatalf("first run built %d artifacts for one workload, want 1", missesAfterFirst)
	}

	second := detRunner(2)
	second.Scale = cacheTestScale
	second.Prefetch(second.namedCells(cfgs, []workloads.Workload{w})...)
	hits, misses := workloads.CacheStats()
	if misses != missesAfterFirst {
		t.Fatalf("second in-process run rebuilt artifacts: misses %d -> %d",
			missesAfterFirst, misses)
	}
	if hits == 0 {
		t.Fatal("second run never hit the artifact cache")
	}
	for _, cfg := range cfgs {
		a, b := first.Run(cfg, w), second.Run(cfg, w)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s|%s: first and second runs differ", cfg, w.Name)
		}
	}
}
