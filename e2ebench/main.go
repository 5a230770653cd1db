// Command e2ebench is the repository's end-to-end benchmark. Four
// workloads each load a different layer of the simulator and its
// service stack; the benchmark drives them through public calls only
// and times those calls from outside. An untraced run prints the
// end-to-end metrics; a traced run (-trace 1) takes a CPU profile
// around the same calls and prints per-layer metrics. See README.md.
//
// Usage (from the repository root; run.sh builds and runs this):
//
//	e2ebench -workload sim-dice-long -seed 1 -seconds 20 -trace 0
//	e2ebench -all -seconds 20      # every workload, each in a fresh process
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dice/internal/workloads"
)

// defaultSeed selects the inputs the recorded digests and the baseline
// were taken with.
const defaultSeed = 1

// setupReps is how many fresh processes time each workload's set-up;
// setup_s is the median.
const setupReps = 5

// workloadList is every workload, in the order -all runs them.
var workloadList = []struct {
	name string
	run  func(*run) error
}{
	{"sim-dice-long", simDiceLong},
	{"sim-base-stream", simBaseStream},
	{"sweep-short", sweepShort},
	{"daemon-submit", daemonSubmit},
}

// workloadNamed returns the workload called name, or nil.
func workloadNamed(name string) func(*run) error {
	for _, w := range workloadList {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, printed for every workload.
// Throughput is counted against process CPU time, not wall time: on a
// small shared VM, time stolen by other guests moved wall-clock
// throughput by more than any bound worth having (see README.md).
var endToEnd = []metricDef{
	{"sim_refs_per_cpu_s", "refs/cpu-s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics, printed for every workload; a
// metric of a layer the workload does not run reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_frac", "ratio"})
	}
	return append(defs, []metricDef{
		{"dcache.size_memo_hit_rate", "ratio"},
		{"dcache.probes_per_read", "ratio"},
		{"dram.accesses_per_ref", "ratio"},
		{"runtime.allocs_per_ref", "count"},
		{"runtime.bytes_per_ref", "B"},
		{"runtime.gc_count", "count"},
		{"workloads.build_s", "s"},
		{"dse.expand_ms", "ms"},
		{"dse.frontier_ms", "ms"},
		{"dse.results_appends_per_sync", "ratio"},
		{"cells_per_hour", "cells/h"},
		{"jobs_per_s", "jobs/s"},
		{"submit_p50_ms", "ms"},
		{"submit_p99_ms", "ms"},
		{"job_p50_ms", "ms"},
		{"job_p99_ms", "ms"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.queue_wait_ms_p99", "ms"},
		{"serve.run_ms_p50", "ms"},
		{"serve.stream_tail_ms_p50", "ms"},
		{"serve.stream_tail_ms_p99", "ms"},
		{"commitlog.journal_appends_per_sync", "ratio"},
		{"commitlog.journal_bytes_per_job", "B"},
		{"serve.heap_mb_end", "MiB"},
		{"serve.replay_ms", "ms"},
		{"trace_overhead_frac", "ratio"},
	}...)
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally is the work one measured phase completed.
type tally struct {
	refs    float64 // simulated references, warmup included
	elapsed time.Duration
	cpu     time.Duration // process CPU time, all threads
}

// rate is simulated references per wall-clock second.
func (t tally) rate() float64 {
	if t.elapsed <= 0 {
		return 0
	}
	return t.refs / t.elapsed.Seconds()
}

// cpuRate is simulated references per second of process CPU time.
func (t tally) cpuRate() float64 {
	if t.cpu <= 0 {
		return 0
	}
	return t.refs / t.cpu.Seconds()
}

// run is one workload run: its settings, its checks and what it
// measured.
type run struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	// setupOnly marks a child process that only times set-up.
	setupOnly bool
	// setupProbes is how many child processes time set-up.
	setupProbes int
	dir         string // this run's scratch directory (journals, results logs)
	outDir      string

	spans *spanLog // all spans of a traced run
	rec   *spanLog // where calls record spans now: nil in untraced phases

	attempted, failed int

	setupS   float64
	maxRSSMB float64
	untraced tally
	traced   tally
	layer    map[string]float64 // per-layer metrics by name
}

// check counts one checked operation, and a failure when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Printf("FAIL: "+format+"\n", args...)
	}
}

// setup measures set-up in fresh processes, then sets this process up.
// Each of r.setupProbes child processes (this binary with -setup-only)
// runs step and reports the CPU time it has used, from its start
// through package initialization and step; setup_s is the median. CPU
// time, like the throughput metric, is immune to time stolen by other
// guests; the median wall time to the report is printed beside it.
// Without probes (tests) setup_s is step's CPU time in this process.
func (r *run) setup(step func() (teardown func() error, err error)) (func() error, error) {
	if r.setupOnly {
		td, err := step()
		if err != nil {
			return nil, err
		}
		fmt.Println(setupReady, cpuTime().Nanoseconds())
		if err := td(); err != nil {
			return nil, err
		}
		return nil, errSetupOnly
	}
	var cpu, wall []float64
	for i := 0; i < r.setupProbes; i++ {
		c, w, err := r.probeSetup()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		cpu = append(cpu, c.Seconds())
		wall = append(wall, w.Seconds())
	}
	c0 := cpuTime()
	td, err := step()
	r.setupS = (cpuTime() - c0).Seconds()
	if len(cpu) > 0 {
		r.setupS = median(cpu)
		fmt.Printf("setup wall = %.6f s (median of %d processes)\n", median(wall), len(wall))
	}
	return td, err
}

const setupReady = "e2ebench: set up, cpu ns"

// errSetupOnly ends a -setup-only child after its set-up.
var errSetupOnly = errors.New("set-up only")

// probeSetup runs one -setup-only child and returns the CPU time it
// reports and the wall time to that report, then waits for the child to
// tear down and exit.
func (r *run) probeSetup() (cpu, wall time.Duration, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(self, "-workload", r.workload, "-seed", fmt.Sprint(r.seed), "-out", r.outDir, "-setup-only")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if ns, ok := strings.CutPrefix(sc.Text(), setupReady+" "); ok && wall == 0 {
			wall = time.Since(t0)
			n, perr := strconv.ParseInt(ns, 10, 64)
			cpu, err = time.Duration(n), perr
		}
	}
	if werr := cmd.Wait(); err == nil {
		err = werr
	}
	if err == nil && wall == 0 {
		err = errors.New("child exited without setting up")
	}
	return cpu, wall, err
}

// build drops the process-wide artifact cache and rebuilds the named
// workloads' artifacts, recording the time as workloads.build_s.
func (r *run) build(scale uint, ws ...workloads.Workload) {
	sp := r.rec.begin("workloads.Warm", "setup", 0)
	t0 := time.Now()
	workloads.DropCache()
	for _, w := range ws {
		w.Warm(scale)
	}
	r.layer["workloads.build_s"] = time.Since(t0).Seconds()
	r.rec.end(sp)
}

// measure runs phase for the run's window and records what it did.
// An untraced run measures the whole window. A traced run measures the
// first half untraced and the second half under a CPU profile with
// spans on; the difference is the tracing overhead.
func (r *run) measure(phase func(d time.Duration) (tally, error)) error {
	d := r.window
	if r.trace {
		d /= 2
	}
	r.rec = nil
	c0 := cpuTime()
	t, err := phase(d)
	t.cpu = cpuTime() - c0
	r.rec = r.spans
	if err != nil {
		return err
	}
	r.untraced = t
	r.maxRSSMB = maxRSSMiB()
	if !r.trace {
		return nil
	}

	var buf bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	c0 = cpuTime()
	t, err = phase(d)
	t.cpu = cpuTime() - c0
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	r.traced = t
	fr, err := selfFractions(buf.Bytes())
	if err != nil {
		return err
	}
	var sum float64
	for _, l := range layers {
		r.layer[l+".self_frac"] = fr[l]
		sum += fr[l]
	}
	r.check(len(fr) > 0 && sum > 0.999999 && sum < 1.000001, "self_frac values sum to %v", sum)
	if t.refs > 0 {
		r.layer["runtime.allocs_per_ref"] = float64(m1.Mallocs-m0.Mallocs) / t.refs
		r.layer["runtime.bytes_per_ref"] = float64(m1.TotalAlloc-m0.TotalAlloc) / t.refs
	}
	r.layer["runtime.gc_count"] = float64(m1.NumGC - m0.NumGC)
	if u := r.untraced.cpuRate(); u > 0 {
		r.layer["trace_overhead_frac"] = 1 - t.cpuRate()/u
	}
	return nil
}

// percentile records a latency percentile as a per-layer metric. The
// value counts only when minTail samples lie beyond it; otherwise the
// run reports the sample count and fails the check.
func (r *run) percentile(name string, ms []float64, p float64) {
	v, ok := percentile(ms, p)
	r.check(ok, "%s: %d samples leave fewer than %d beyond the percentile", name, len(ms), minTail)
	if ok {
		r.layer[name] = v
	}
	fmt.Printf("%s = %.4f ms (n=%d)\n", name, v, len(ms))
}

// checkGoroutines waits briefly for the goroutine count to return to
// what it was before set-up; a leak counts as a failed operation.
func (r *run) checkGoroutines(before int) {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(20 * time.Millisecond)
	}
	r.check(n <= before, "goroutines: %d after shutdown, %d before set-up", n, before)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (r *run) result() result {
	m := map[string]metric{}
	if r.trace {
		for _, d := range perLayer {
			m[d.name] = metric{r.layer[d.name], d.unit}
		}
	} else {
		vals := map[string]float64{
			"sim_refs_per_cpu_s": r.untraced.cpuRate(),
			"setup_s":            r.setupS,
			"max_rss_mb":         r.maxRSSMB,
		}
		for _, d := range endToEnd {
			m[d.name] = metric{vals[d.name], d.unit}
		}
	}
	return result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

func main() {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, "input seed; the default selects the recorded digests")
	seconds := fs.Float64("seconds", 20, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for scratch files and span logs")
	all := fs.Bool("all", false, "run every workload, each in a fresh process, and print a summary")
	setupOnly := fs.Bool("setup-only", false, "set the workload up, report it, tear down and exit (how setup_s is timed)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *all {
		os.Exit(runAll(*seed, *seconds, *trace, *out))
	}
	fn := workloadNamed(*workload)
	if fn == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, trace: *trace == 1, outDir: *out, setupOnly: *setupOnly,
		window: time.Duration(*seconds * float64(time.Second)),
		layer:  map[string]float64{},
	}
	if !*setupOnly {
		r.setupProbes = setupReps
	}
	res, err := r.execute(fn)
	if errors.Is(err, errSetupOnly) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// execute runs one workload in a scratch directory it removes after.
func (r *run) execute(fn func(*run) error) (result, error) {
	if !r.setupOnly {
		fmt.Printf("e2ebench: workload %s seed %d window %v trace %v GOMAXPROCS %d\n",
			r.workload, r.seed, r.window, r.trace, runtime.GOMAXPROCS(0))
	}
	r.dir = filepath.Join(r.outDir, "tmp", fmt.Sprintf("%s-%d", r.workload, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return result{}, err
	}
	if r.trace {
		r.spans = newSpanLog()
		r.rec = r.spans
	}
	before := runtime.NumGoroutine()
	err := fn(r)
	if rmErr := os.RemoveAll(r.dir); err == nil {
		err = rmErr
	}
	if err != nil {
		return result{}, err
	}
	r.checkGoroutines(before)
	_, statErr := os.Stat(r.dir)
	r.check(errors.Is(statErr, os.ErrNotExist), "scratch directory %s not removed", r.dir)
	if r.spans != nil {
		if err := r.spans.write(filepath.Join(r.outDir, fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed))); err != nil {
			return result{}, err
		}
	}
	fmt.Printf("setup_s = %.6f s\nmax_rss_mb = %.1f MiB\n", r.setupS, r.maxRSSMB)
	fmt.Printf("sim_refs_per_cpu_s = %.1f refs/cpu-s (%.0f refs, cpu %v)\n", r.untraced.cpuRate(), r.untraced.refs, r.untraced.cpu.Round(time.Millisecond))
	fmt.Printf("sim_refs_per_s = %.1f refs/s (wall %v)\n", r.untraced.rate(), r.untraced.elapsed.Round(time.Millisecond))
	if r.trace {
		for _, d := range perLayer {
			fmt.Printf("  %s = %.6g %s\n", d.name, r.layer[d.name], d.unit)
		}
	}
	return r.result(), nil
}

// runAll runs every workload in its own process, passing its output
// through, then prints one line per workload with its metrics.
func runAll(seed uint64, seconds float64, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	code := 0
	var summary []string
	for _, wl := range workloadList {
		cmd := exec.Command(self, "-workload", wl.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			last = sc.Text()
			fmt.Println(last)
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", wl.name, err)
			code = 1
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: bad result line: %v\n", wl.name, err)
			code = 1
			continue
		}
		if !res.Correct {
			code = 1
		}
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		line := fmt.Sprintf("%-16s correct=%v attempted=%d failed=%d", wl.name, res.Correct, res.Attempted, res.Failed)
		for _, n := range names {
			line += fmt.Sprintf(" %s=%.6g %s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
		summary = append(summary, line)
	}
	fmt.Println("summary:")
	for _, l := range summary {
		fmt.Println(l)
	}
	return code
}
