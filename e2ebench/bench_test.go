package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"dice/internal/dcache"
	"dice/internal/dse"
	"dice/internal/sim"
	"dice/internal/workloads"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"dice/internal/dcache.(*Cache).Read":                         "dcache",
		"dice/internal/dcache.(*Cache).install.func1":                "dcache",
		"dice/internal/cache.(*Cache).Install":                       "cache",
		"dice/internal/compress.(*SizeCache).lookup":                 "compress",
		"dice/internal/dram.(*Memory).reserveBus":                    "dram",
		"dice/internal/core.(*Core).Step":                            "sim",
		"dice/internal/graph.Trace":                                  "workloads",
		"dice/internal/parallel.ForEach[go.shape.int].func1":         "experiments",
		"dice/internal/experiments.(*Runner).ForEachCellCtx.func2.1": "experiments",
		"dice/internal/dse.Run.func1":                                "dse",
		"dice/internal/serve/client.(*Client).Submit":                "serve",
		"dice/internal/commitlog.(*Log).committer":                   "commitlog",
		"dice/internal/obs.CaptureSelf":                              "other",
		"runtime.mallocgc":                                           "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                     "runtime",
		"sync/atomic.(*Pointer[dice/internal/serve.job]).Load":       "runtime",
		"internal/runtime/syscall.Syscall6":                          "syscall",
		"internal/poll.(*FD).Fsync":                                  "syscall",
		"os.(*File).Sync":                                            "syscall",
		"net/http.(*conn).serve":                                     "net",
		"vendor/golang.org/x/net/http/httpguts.ValidHeaderFieldName": "net",
		"encoding/json.(*decodeState).object":                        "json",
		"compress/flate.(*compressor).deflate":                       "other",
		"type:.eq.dice/internal/serve.CellSpec":                      "other",
		"main.main":                                                  "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, x uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, x)
}

func (p *pb) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, xs ...uint64) {
	var m pb
	for _, x := range xs {
		m.b = binary.AppendUvarint(m.b, x)
	}
	p.bytes(num, m.b)
}

// testProfile encodes a CPU profile whose locations hold the given
// frames (innermost first), one sample of cpu nanoseconds per location.
// A location with no frames becomes a sample with no stack.
func testProfile(t *testing.T, locs [][]string, ns []uint64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	var p pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		p.bytes(1, m.b)
	}
	fnID := map[string]uint64{}
	for i, frames := range locs {
		var loc pb
		loc.varint(1, uint64(i+1))
		for _, f := range frames {
			if fnID[f] == 0 {
				strs = append(strs, f)
				fnID[f] = uint64(len(fnID) + 1)
				var fn pb
				fn.varint(1, fnID[f])
				fn.varint(2, uint64(len(strs)-1))
				p.bytes(5, fn.b)
			}
			var line pb
			line.varint(1, fnID[f])
			loc.bytes(4, line.b)
		}
		p.bytes(4, loc.b)
		var s pb
		switch {
		case len(frames) == 0:
		case i%2 == 0: // packed
			s.packed(1, uint64(i+1))
		default: // one unpacked varint
			s.varint(1, uint64(i+1))
		}
		s.packed(2, 1, ns[i])
		p.bytes(2, s.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	if _, err := w.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestSelfFractions(t *testing.T) {
	prof := testProfile(t, [][]string{
		{"dice/internal/dcache.(*Cache).Read.func1"},
		// Inlined: the size lookup was inlined into dcache's install.
		{"dice/internal/compress.(*SizeCache).lookup", "dice/internal/dcache.(*Cache).install"},
		{"runtime.mallocgc", "dice/internal/sim.(*runState).processRef"},
		{"internal/runtime/syscall.Syscall6", "syscall.fsync"},
		{"net/http.(*conn).serve"},
		{"encoding/json.(*decodeState).object"},
		{"sync/atomic.(*Pointer[dice/internal/serve.job]).Load"},
		{},
	}, []uint64{400, 200, 120, 80, 60, 50, 40, 50})
	got, err := selfFractions(prof)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"dcache": 0.4, "compress": 0.2, "runtime": 0.16, "syscall": 0.08,
		"net": 0.06, "json": 0.05, "other": 0.05,
	}
	var sum float64
	for l, v := range got {
		sum += v
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("%s = %v, want %v", l, v, want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v", sum)
	}
	if _, err := selfFractions(prof[:len(prof)/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// TestSelfFractionsRealProfile decodes what runtime/pprof writes.
func TestSelfFractionsRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	got, err := selfFractions(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if len(got) == 0 || math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions %v (sum %v, x %v)", got, sum, x)
	}
	// The spin loop is in package main, an unmapped package.
	if got["other"] < 0.5 {
		t.Errorf("spin loop attributed to %v", got)
	}
}

func TestPercentileTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{19, 0.50, 10, false},
		{20, 0.50, 10, true},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.p)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
}

// TestWrongDigestFails injects a wrong digest: every run must count as
// a failed operation, while the right digest passes.
func TestWrongDigestFails(t *testing.T) {
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Policy: dcache.PolicyDICE, RefsPerCore: 500}
	ref, err := sim.RunReference(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		digest string
		fail   bool
	}{{digestResult(ref), false}, {strings.Repeat("0", 64), true}} {
		r := &run{workload: "sim-test", seed: defaultSeed, window: 20 * time.Millisecond, layer: map[string]float64{}}
		if err := simWorkload(r, cfg, w, c.digest); err != nil {
			t.Fatal(err)
		}
		res := r.result()
		wantFailed := 0
		if c.fail {
			wantFailed = res.Attempted
		}
		if res.Attempted == 0 || res.Failed != wantFailed || res.Correct == c.fail {
			t.Errorf("digest %.8s: attempted %d failed %d correct %v", c.digest, res.Attempted, res.Failed, res.Correct)
		}
	}
}

// TestRecordedDigests ties the recorded default-seed digests to the
// references non-default seeds are checked against.
func TestRecordedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the default inputs through the reference paths")
	}
	for _, c := range []struct {
		name, digest string
		policy       dcache.Policy
		load         func(uint64) (workloads.Workload, error)
	}{
		{"sim-dice-long", diceLongDigest, dcache.PolicyDICE, seededMix},
		{"sim-base-stream", baseStreamDigest, dcache.PolicyUncompressed, seededStream},
	} {
		w, err := c.load(defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunReference(sim.Config{Policy: c.policy, RefsPerCore: simRefsPerCore}, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := digestResult(res); got != c.digest {
			t.Errorf("%s: reference digest %s, recorded %s", c.name, got, c.digest)
		}
	}
	spec, err := dse.Parse(strings.NewReader(sweepSpec(defaultSeed)))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	r := &run{layer: map[string]float64{}}
	got, err := r.sweepReference(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got != sweepDigest || len(cells) != 180 {
		t.Errorf("sweep-short: %d cells, reference digest %s, recorded %s", len(cells), got, sweepDigest)
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		if workloadNamed(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	same := func(what string, file []struct{ Name, Unit string }, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: file lists %d metrics, program prints %d", what, len(file), len(prog))
			return
		}
		for i, m := range file {
			if m.Name != prog[i].name || m.Unit != prog[i].unit {
				t.Errorf("%s[%d]: file %s (%s), program %s (%s)", what, i, m.Name, m.Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}
