// Command perfbench measures the simulator's hot paths with the
// testing.Benchmark harness and records the numbers as JSON, so the
// repository carries a performance trajectory that future PRs extend
// (and CI can diff). One entry per layer: hybrid single/pair
// compression sizing, the DRAM-cache demand path (probe + install +
// repack), the DRAM channel hot paths (Access scheduling and the
// in-flight queue gauge), workload artifact construction cold vs served
// from the process-wide cache, a full simulation of a fixed mix, the
// discrete-event versus cycle-stepped simulation cores on one config
// (the scheduler's headline number), and a GAP 8-configuration matrix
// cold vs warm (the artifact cache's headline number).
//
// Usage:
//
//	perfbench                          # print the table
//	perfbench -out BENCH_pr4.json -label pr4
//
// -out merges the run into the JSON file under -label, preserving any
// other labels already recorded there (so "baseline" and "pr4" runs of
// the same file are directly comparable). Every entry reports ns/ref,
// allocs/ref and refs/sec; for the microbenchmarks one reference is
// one benchmark op, for the full-sim entries it is one simulated
// memory reference (warmup included).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"dice/internal/compress"
	"dice/internal/data"
	"dice/internal/dcache"
	"dice/internal/dram"
	"dice/internal/experiments"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// Entry is one benchmark's recorded numbers, normalized per reference.
// Latency-distribution entries (daemon/submit) additionally carry tail
// quantiles: NsPerRef is then the mean per-operation latency and the
// P*Ns fields the nearest-rank percentiles of the same distribution.
type Entry struct {
	NsPerRef     float64 `json:"ns_per_ref"`
	AllocsPerRef float64 `json:"allocs_per_ref"`
	BytesPerRef  float64 `json:"bytes_per_ref"`
	RefsPerSec   float64 `json:"refs_per_sec"`
	Iterations   int     `json:"iterations"`
	P50Ns        float64 `json:"p50_ns,omitempty"`
	P99Ns        float64 `json:"p99_ns,omitempty"`
	P999Ns       float64 `json:"p999_ns,omitempty"`
}

// Run is one labeled perfbench invocation.
type Run struct {
	Go      string           `json:"go"`
	Date    string           `json:"date"`
	Entries map[string]Entry `json:"entries"`
}

// cliFlags holds every perfbench flag; registerFlags is the one place
// they are declared, shared by main and the flag-docs pin test.
type cliFlags struct {
	out   *string
	label *string
}

// registerFlags declares the perfbench flags on fs.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		out:   fs.String("out", "", "merge results into this JSON file (empty = print only)"),
		label: fs.String("label", "run", "label to record the results under in -out"),
	}
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	var (
		out   = o.out
		label = o.label
	)

	entries := map[string]Entry{}
	for _, b := range benches() {
		r := testing.Benchmark(b.fn)
		refs := float64(r.N) * b.refsPerOp
		ns := float64(r.T.Nanoseconds())
		e := Entry{
			NsPerRef:     ns / refs,
			AllocsPerRef: float64(r.MemAllocs) / refs,
			BytesPerRef:  float64(r.MemBytes) / refs,
			Iterations:   r.N,
		}
		if e.NsPerRef > 0 {
			e.RefsPerSec = 1e9 / e.NsPerRef
		}
		entries[b.name] = e
		fmt.Printf("%-24s %12.1f ns/ref %10.2f allocs/ref %12.0f refs/sec\n",
			b.name, e.NsPerRef, e.AllocsPerRef, e.RefsPerSec)
	}

	// Raw commit-log append throughput, 1 vs 64 concurrent appenders:
	// the appends/sec ratio between the two is the fsync amortization
	// factor group commit achieves on this machine.
	for _, cl := range []struct {
		name      string
		appenders int
		per       int
	}{
		{"commitlog/append-1", 1, 512},
		{"commitlog/append-64", 64, 16},
	} {
		e, err := measureCommitLogAppend(cl.appenders, cl.per)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		entries[cl.name] = e
		fmt.Printf("%-24s %12.1f ns/append %24.0f appends/sec\n", cl.name, e.NsPerRef, e.RefsPerSec)
	}

	sub, err := measureSubmitLatency(submitSamples)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	entries["daemon/submit"] = sub
	fmt.Printf("%-24s %12.1f ns/op  p50 %.0fns p99 %.0fns p999 %.0fns\n",
		"daemon/submit", sub.NsPerRef, sub.P50Ns, sub.P99Ns, sub.P999Ns)

	// The concurrent submit distribution — submitConcurrency clients in
	// flight at once, the regime the journal's group commit batches.
	subc, _, err := measureSubmitLatencyWith(submitSamples, submitConcurrency, submitLinger, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	name := fmt.Sprintf("daemon/submit-c%d", submitConcurrency)
	entries[name] = subc
	fmt.Printf("%-24s %12.1f ns/op  p50 %.0fns p99 %.0fns p999 %.0fns\n",
		name, subc.NsPerRef, subc.P50Ns, subc.P99Ns, subc.P999Ns)

	if *out == "" {
		return
	}
	if err := merge(*out, *label, Run{
		Go:      runtime.Version(),
		Date:    time.Now().UTC().Format("2006-01-02"),
		Entries: entries,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("recorded %d entries under %q in %s\n", len(entries), *label, *out)
}

// merge writes run under label into the JSON file at path, keeping
// every other label intact.
func merge(path, label string, run Run) error {
	all := map[string]json.RawMessage{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("perfbench: %s exists but is not a label map: %v", path, err)
		}
	}
	rb, err := json.Marshal(run)
	if err != nil {
		return err
	}
	all[label] = rb
	// Stable key order for reviewable diffs.
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	buf = append(buf, '{', '\n')
	for i, k := range keys {
		var pretty []byte
		pretty, err = json.MarshalIndent(json.RawMessage(all[k]), "  ", "  ")
		if err != nil {
			return err
		}
		kb, _ := json.Marshal(k)
		buf = append(buf, ' ', ' ')
		buf = append(buf, kb...)
		buf = append(buf, ':', ' ')
		buf = append(buf, pretty...)
		if i < len(keys)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, '}', '\n')
	return os.WriteFile(path, buf, 0o644)
}

// bench is one named benchmark plus how many simulated references each
// benchmark op covers.
type bench struct {
	name      string
	refsPerOp float64
	fn        func(*testing.B)
}

// mixedProfile weights every data kind equally: the corpus spans the
// whole compressibility spectrum the workload catalog exercises.
func mixedProfile() data.Profile {
	var p data.Profile
	for k := data.Kind(0); k < data.KindCount; k++ {
		p.Weights[k] = 1
	}
	p.PageCoherence = 0.9
	return p
}

func corpus(n int) [][]byte {
	s := data.NewSynth(0xD1CE, mixedProfile())
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = s.Line(uint64(i))
	}
	return lines
}

// benchSource adapts a data.Synth to dcache.DataSource, the same role
// the simulator's machine plays for its L4.
type benchSource struct{ s *data.Synth }

// Line returns the 64 bytes of a line.
func (b *benchSource) Line(line uint64) []byte { return b.s.Line(line) }

// benchLine generates the dcache benchmark's address stream: runs of
// sequential lines interleaved with jumps over a footprint ~4x the
// cache's line capacity.
func benchLine(i int) uint64 {
	h := uint64(i) * 0x9E3779B97F4A7C15
	return (h>>40)%(1<<15)*8 + uint64(i)&7
}

const simRefsPerCore = 4000

// simTotalRefs mirrors the sim benchmark's per-op reference count:
// 8 cores, measured refs plus 50% warmup.
func simTotalRefs() float64 {
	return 8 * (simRefsPerCore + simRefsPerCore/2)
}

func benches() []bench {
	return []bench{
		{name: "compress/single-size", refsPerOp: 1, fn: func(b *testing.B) {
			lines := corpus(512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				compress.CompressedSize(lines[i%len(lines)])
			}
		}},
		{name: "compress/pair-size", refsPerOp: 1, fn: func(b *testing.B) {
			lines := corpus(512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := (i * 2) % (len(lines) - 1)
				compress.PairSize(lines[j], lines[j+1])
			}
		}},
		{name: "dcache/read-install", refsPerOp: 1, fn: func(b *testing.B) {
			c := dcache.New(dcache.Config{
				Sets:   1 << 13,
				Policy: dcache.PolicyDICE,
				Mem:    dram.New(dram.HBMConfig()),
				Data:   &benchSource{s: data.NewSynth(0xD1CE, mixedProfile())},
			})
			now := uint64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				line := benchLine(i)
				r := c.Read(now, line)
				if !r.Hit {
					c.Install(r.Done, line, false)
				}
				now += 12
			}
		}},
		{name: "dram/access", refsPerOp: 1, fn: func(b *testing.B) {
			m := dram.New(dram.HBMConfig())
			now := uint64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := uint64(i) * 0x9E3779B97F4A7C15
				loc := dram.Loc{Channel: int(h % 4), Bank: int(h >> 2 % 16), Row: h >> 6 % 256}
				m.Access(now, loc, i&7 == 0, 80)
				now += 6
			}
		}},
		{name: "dram/inflight-total", refsPerOp: 1, fn: func(b *testing.B) {
			cfg := dram.HBMConfig()
			m := dram.New(cfg)
			for c := 0; c < cfg.Channels; c++ {
				for i := 0; i < cfg.QueueDepth; i++ {
					m.Access(0, dram.Loc{Channel: c, Bank: 0, Row: 1}, false, 80)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.InFlightTotal(0)
			}
		}},
		{name: "workloads/build-cold", refsPerOp: 1, fn: func(b *testing.B) {
			w, err := workloads.ByName("cc_twi")
			if err != nil {
				b.Fatal(err)
			}
			// The sim-default scale (workloads.Build itself takes the raw
			// shift; the 0 -> 10 defaulting lives in sim.Config).
			scale := sim.Config{}.EffectiveScale()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Dropping the cache makes every Build a cold construction.
				workloads.DropCache()
				w.Build(scale)
			}
		}},
		{name: "workloads/build-warm", refsPerOp: 1, fn: func(b *testing.B) {
			w, err := workloads.ByName("cc_twi")
			if err != nil {
				b.Fatal(err)
			}
			scale := sim.Config{}.EffectiveScale()
			w.Warm(scale)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Build(scale)
			}
		}},
		{name: "sim/mix1", refsPerOp: simTotalRefs(), fn: simBench("mix1")},
		{name: "sim/gcc", refsPerOp: simTotalRefs(), fn: simBench("gcc")},
		{name: "simcore/event", refsPerOp: simTotalRefs(), fn: simCoreBench(false)},
		{name: "simcore/cycle", refsPerOp: simTotalRefs(), fn: simCoreBench(true)},
		{name: "matrix/gap8-cold", refsPerOp: 8 * simTotalRefs(), fn: matrixBench(false)},
		{name: "matrix/gap8-warm", refsPerOp: 8 * simTotalRefs(), fn: matrixBench(true)},
	}
}

// matrixBench runs a fig10-class slice of the evaluation — one GAP
// workload under 8 configurations — through the experiment runner, with
// the artifact cache either dropped before every simulation (the
// pre-cache behavior: every simulation rebuilds the graph and kernel
// trace) or warmed. The warm:cold wall-clock ratio is the artifact
// cache's headline win.
func matrixBench(warm bool) func(*testing.B) {
	return func(b *testing.B) {
		w, err := workloads.ByName("cc_twi")
		if err != nil {
			b.Fatal(err)
		}
		cfgs := []string{"base", "tsi", "nsi", "bai", "dice", "scc", "dice-knl", "dice-t32"}
		if warm {
			w.Warm(sim.Config{}.EffectiveScale())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh runner per op: its per-key memoization must not
			// absorb the work the artifact cache is being measured on.
			r := experiments.NewRunner(simRefsPerCore)
			for _, cfg := range cfgs {
				if !warm {
					workloads.DropCache()
				}
				r.Run(cfg, w)
			}
		}
	}
}

// simCoreBench pits the two simulation cores against each other on an
// identical (config, workload) pair: the discrete-event scheduler
// (sim.RunEvent) versus the cycle-stepped reference (sim.RunReference).
// Both produce byte-identical Results. The config is the catalog's
// idle-heaviest (streaming misses, single-slot MLP window) — the same
// one `make bench-smoke` asserts on — because the dispatch disciplines
// only differ on idle cycles: every component model is timestamp-lazy,
// so the cycle-stepped loop's whole overhead is its idle-cycle core
// scan (see DESIGN.md §12).
func simCoreBench(cycle bool) func(*testing.B) {
	return func(b *testing.B) {
		w, err := workloads.ByName("milc")
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.Config{Policy: dcache.PolicyUncompressed, RefsPerCore: simRefsPerCore, MLPWindow: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cycle {
				_, err = sim.RunReference(cfg, w)
			} else {
				_, _, err = sim.RunEvent(cfg, w)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func simBench(workload string) func(*testing.B) {
	return func(b *testing.B) {
		w, err := workloads.ByName(workload)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.Config{Policy: dcache.PolicyDICE, RefsPerCore: simRefsPerCore}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(cfg, w); err != nil {
				b.Fatal(err)
			}
		}
	}
}
