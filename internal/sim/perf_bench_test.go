package sim

import (
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"dice/internal/dcache"
	"dice/internal/workloads"
)

// benchRefsPerCore keeps the full-sim benchmark short enough for CI
// smoke runs while still exercising warmup, contention and eviction.
const benchRefsPerCore = 4000

// smokeRefsPerCore sizes each timed round of the event-core gate
// (TestEventCoreSmokeSpeedup) to well over 100 ms of CPU, so scheduler
// jitter and timer granularity stay small against the ratio it checks.
const smokeRefsPerCore = 24000

// benchTotalRefs is the number of simulated references one benchmark
// iteration processes (warmup included), for per-ref normalization.
func benchTotalRefs() int {
	warm := benchRefsPerCore / 2 // WarmupFrac 0.5
	return cores * (benchRefsPerCore + warm)
}

// benchSim runs one full simulation of the named workload per
// iteration through run and reports ns/ref and refs/sec over all
// simulated references (warmup included).
func benchSim(b *testing.B, name string, cfg Config, run func(Config, workloads.Workload) error) {
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := float64(benchTotalRefs())
	nsPerRef := float64(b.Elapsed().Nanoseconds()) / (float64(b.N) * total)
	b.ReportMetric(nsPerRef, "ns/ref")
	b.ReportMetric(1e9/nsPerRef, "refs/sec")
}

func runEventCore(cfg Config, w workloads.Workload) error {
	_, err := Run(cfg, w)
	return err
}

// BenchmarkRunMix1 measures one full simulation of the mix1 workload
// under the DICE policy — the end-to-end number the ROADMAP's
// "fast as the hardware allows" goal tracks.
func BenchmarkRunMix1(b *testing.B) {
	benchSim(b, "mix1", Config{Policy: dcache.PolicyDICE, RefsPerCore: benchRefsPerCore}, runEventCore)
}

// BenchmarkRunMix1Prefetch is BenchmarkRunMix1 with Table 7's next-line
// L3 prefetcher on, so the prefetch path and its queue-depth throttle
// (dram.InFlight on every prefetch probe) are measured too.
func BenchmarkRunMix1Prefetch(b *testing.B) {
	cfg := Config{Policy: dcache.PolicyDICE, RefsPerCore: benchRefsPerCore, Prefetch: PrefetchNextLine}
	benchSim(b, "mix1", cfg, runEventCore)
}

// BenchmarkRunGccCycle measures the same gcc/DICE simulation on the
// cycle-stepped reference core, the baseline the discrete-event
// scheduler's speedup is quoted against (BenchmarkRunGcc runs the
// event core via the default Run dispatch).
func BenchmarkRunGccCycle(b *testing.B) {
	cfg := Config{Policy: dcache.PolicyDICE, RefsPerCore: benchRefsPerCore}
	benchSim(b, "gcc", cfg, func(cfg Config, w workloads.Workload) error {
		_, err := RunReference(cfg, w)
		return err
	})
}

// TestEventCoreSmokeSpeedup asserts the discrete-event core beats the
// cycle-stepped reference on the smoke workload. The config is the
// most idle-heavy in the catalog (streaming misses with a single-slot
// MLP window maximize the gaps the event core skips); the measured
// ratio on it is 1.1-1.6x (median about 1.4x over 20 runs on a 2-vCPU
// VM), and the assertion floor sits at 1.05x so a dispatch regression
// fails loudly without load-induced flakes. Each round runs
// smokeRefsPerCore references per core, over 100 ms of CPU per arm. The
// gap is structural, not a tuning shortfall: every component model is
// timestamp-lazy, so the cycle-stepped loop does no per-cycle
// component work either — its only extra cost is the idle-cycle core
// scan, a few percent of one reference's simulation cost (see
// DESIGN.md §12). Each arm is timed by the process's CPU time (user +
// system), not the wall clock, so time the VM's host steals from the
// guest is not charged to either core, and the arms alternate round by
// round, so a slow stretch of the machine falls on both; each keeps its
// best round. Timing assertions are still load-sensitive, so the test
// only runs when DICE_SMOKE=1 (`make bench-smoke`), never in tier-1
// `go test ./...`.
func TestEventCoreSmokeSpeedup(t *testing.T) {
	if os.Getenv("DICE_SMOKE") != "1" {
		t.Skip("timing assertion; set DICE_SMOKE=1 (make bench-smoke) to run")
	}
	w, err := workloads.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: dcache.PolicyUncompressed, RefsPerCore: smokeRefsPerCore, MLPWindow: 1}
	// One untimed run of each core warms the workload artifact cache so
	// neither side pays the build cost.
	if _, _, err := RunEvent(cfg, w); err != nil {
		t.Fatal(err)
	}
	if _, err := RunReference(cfg, w); err != nil {
		t.Fatal(err)
	}
	cpuTime := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	timeRun := func(run func() error) time.Duration {
		runtime.GC() // collect the other arm's garbage outside the window
		start := cpuTime()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return cpuTime() - start
	}
	const rounds = 5
	ev, cy := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < rounds; i++ {
		ev = min(ev, timeRun(func() error { _, _, err := RunEvent(cfg, w); return err }))
		cy = min(cy, timeRun(func() error { _, err := RunReference(cfg, w); return err }))
	}
	ratio := float64(cy) / float64(ev)
	t.Logf("event %v, cycle %v CPU: %.2fx", ev, cy, ratio)
	if ratio < 1.05 {
		t.Fatalf("event core only %.2fx the cycle-stepped reference, want >= 1.05x", ratio)
	}
}

// BenchmarkRunGcc measures a single-benchmark rate workload under DICE
// (gcc: small footprint, compressible) as a second full-sim point.
func BenchmarkRunGcc(b *testing.B) {
	benchSim(b, "gcc", Config{Policy: dcache.PolicyDICE, RefsPerCore: benchRefsPerCore}, runEventCore)
}
