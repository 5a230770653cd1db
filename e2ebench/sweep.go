package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dice/internal/commitlog"
	"dice/internal/dse"
	"dice/internal/serve"
	"dice/internal/serve/client"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// sweepWorkers is the sweep's concurrency: the box this benchmark was
// sized on has two CPUs.
const sweepWorkers = 2

// sweepDigest fingerprints the default seed's frontier export (CSV then
// JSON).
const sweepDigest = "b5b59e974a2b2f5111239f91d11e3f0f5d2410cfd400c26d6fc1d94a1b76b446"

// sweepGAP are the GAP kernels a seed draws two of: those on the
// Twitter input. The web-input graphs are another size class, and
// drawing them moved max_rss_mb by a fifth from seed to seed.
var sweepGAP = []string{"bc_twi", "cc_twi", "pr_twi"}

// sweepSpec is the sweep-short spec: the 16 rate workloads plus two
// GAP kernels the seed draws (default pr_twi and cc_twi), across three
// designs and three thresholds at dicesweep's default 2000 refs/core.
func sweepSpec(seed uint64) string {
	gaps := []string{"pr_twi", "cc_twi"}
	if seed != defaultSeed {
		p := newRNG(seed).perm(len(sweepGAP))
		gaps = []string{sweepGAP[p[0]], sweepGAP[p[1]]}
	}
	return fmt.Sprintf("name = sweep-short\nworkload = rate %s %s\npolicy = base tsi dice\nthreshold = 24 36 48\n", gaps[0], gaps[1])
}

// sweepShort runs the dicesweep flow in-process: Parse, Expand, Run
// sharded to one loopback daemon, Frontier and export, repeatedly.
func sweepShort(r *run) error {
	text := sweepSpec(r.seed)
	spec, err := dse.Parse(strings.NewReader(text))
	if err != nil {
		return err
	}
	var ws []workloads.Workload
	for _, name := range spec.Workloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	journal := filepath.Join(r.dir, "daemon.journal")
	var d *serve.Daemon
	var base string
	var cells []serve.CellSpec
	teardown, err := r.setup(func() (func() error, error) {
		r.build(sim.Config{}.EffectiveScale(), ws...)
		if err := os.RemoveAll(journal); err != nil {
			return nil, err
		}
		if d, base, err = r.startDaemon(serve.Config{JournalPath: journal}); err != nil {
			return nil, err
		}
		sp := r.rec.begin("dse.Parse+Expand", "setup", 0)
		s, err := dse.Parse(strings.NewReader(text))
		if err == nil {
			cells, err = s.Expand()
		}
		r.rec.end(sp)
		stop := d
		return func() error { return stopDaemon(stop) }, err
	})
	if err != nil {
		return err
	}
	defer teardown()

	refsPerCell := float64(8 * (spec.Refs + spec.Refs/2))
	var (
		digests []string
		phase   []sweepResult // the last phase's sweeps: per-layer figures describe the traced one
		h0, h1  serve.Health
		cl      = client.New(base, 1)
		ctx     = context.Background()
	)
	err = r.measure(func(dur time.Duration) (tally, error) {
		phase = nil
		var err error
		if h0, err = cl.Health(ctx); err != nil {
			return tally{}, err
		}
		var t tally
		start := time.Now()
		for t.elapsed < dur {
			n := len(digests) + 1
			s, err := r.sweepOnce(ctx, text, base, n)
			t.elapsed = time.Since(start)
			if err != nil {
				r.check(false, "sweep %d: %v", n, err)
				continue
			}
			t.refs += float64(s.cells) * refsPerCell
			phase = append(phase, s)
			digests = append(digests, s.digest)
		}
		h1, err = cl.Health(ctx)
		return t, err
	})
	if err != nil {
		return err
	}
	if err := teardown(); err != nil {
		return err
	}
	elapsed := r.untraced.elapsed
	if r.trace {
		elapsed = r.traced.elapsed
	}
	var expandMs, frontierMs []float64
	var phaseCells int
	var appends, syncs uint64
	for _, s := range phase {
		expandMs = append(expandMs, ms(s.expand))
		frontierMs = append(frontierMs, ms(s.frontier))
		phaseCells += s.cells
		appends += s.log.Appends
		syncs += s.log.Syncs
	}
	cph := float64(phaseCells) / elapsed.Hours()
	r.layer["cells_per_hour"] = cph
	// Means: a phase holds a handful of sweeps, too few for a median.
	r.layer["dse.expand_ms"] = mean(expandMs)
	r.layer["dse.frontier_ms"] = mean(frontierMs)
	if syncs > 0 {
		r.layer["dse.results_appends_per_sync"] = float64(appends) / float64(syncs)
	}
	journalMetrics(r, h0, h1, len(phase)) // one daemon job per sweep: 180 cells fit one batch
	fmt.Printf("sweeps = %d (%d cells each)\ncells_per_hour = %.1f cells/h\n", len(digests), len(cells), cph)

	want := sweepDigest
	if r.seed != defaultSeed || r.trace {
		ref, err := r.sweepReference(cells)
		if err != nil {
			return err
		}
		if r.seed != defaultSeed {
			want = ref
		}
	}
	for i, dg := range digests {
		r.check(dg == want, "sweep %d: frontier digest %s, want %s", i+1, dg, want)
	}
	return nil
}

// sweepResult is what one timed sweep did.
type sweepResult struct {
	digest           string // of the frontier export
	cells            int
	expand, frontier time.Duration
	log              commitlog.Stats // of the sweep's results log
}

// sweepOnce is one timed sweep, Parse through Frontier and export.
func (r *run) sweepOnce(ctx context.Context, text, base string, n int) (sweepResult, error) {
	var s sweepResult
	group := fmt.Sprintf("sweep-%d", n)
	top := r.rec.begin("sweep", group, 0)
	defer r.rec.end(top)

	sp := r.rec.begin("dse.Parse", group, top)
	spec, err := dse.Parse(strings.NewReader(text))
	r.rec.end(sp)
	if err != nil {
		return s, err
	}
	sp = r.rec.begin("dse.Expand", group, top)
	t0 := time.Now()
	cells, err := spec.Expand()
	s.expand = time.Since(t0)
	r.rec.end(sp)
	if err != nil {
		return s, err
	}
	s.cells = len(cells)
	logPath := filepath.Join(r.dir, group+".results")
	rlog, _, err := dse.OpenResultLog(logPath)
	if err != nil {
		return s, err
	}
	defer os.Remove(logPath)
	sp = r.rec.begin("dse.Run", group, top)
	results, err := dse.Run(ctx, cells, rlog, nil, dse.Options{Workers: sweepWorkers, Daemons: []string{base}})
	r.rec.end(sp)
	if st := rlog.Stats(); st != nil {
		s.log = *st
	}
	if cerr := rlog.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return s, err
	}
	sp = r.rec.begin("dse.Frontier", group, top)
	t0 = time.Now()
	points, err := dse.Frontier(cells, results)
	s.frontier = time.Since(t0)
	r.rec.end(sp)
	if err != nil {
		return s, err
	}
	s.digest, err = frontierDigest(points)
	return s, err
}

// frontierDigest fingerprints a frontier's CSV and JSON exports.
func frontierDigest(points []dse.Point) (string, error) {
	var buf bytes.Buffer
	if err := dse.WriteCSV(&buf, points); err != nil {
		return "", err
	}
	if err := dse.WriteJSON(&buf, points); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// sweepReference simulates every cell directly with sim.Run, outside
// the daemon, the experiment runner and the timed window, and returns
// the digest of the frontier those results give. A traced run also
// takes the simulated counts from these results.
func (r *run) sweepReference(cells []serve.CellSpec) (string, error) {
	sp := r.rec.begin("sim.Run(reference)", "reference", 0)
	defer r.rec.end(sp)
	type out struct {
		res  sim.Result
		refs int
		err  error
	}
	outs := make([]out, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cfg, err := cells[i].Config(dse.DefaultRefs)
				if err != nil {
					outs[i].err = err
					continue
				}
				w, err := workloads.ByName(cells[i].Workload)
				if err != nil {
					outs[i].err = err
					continue
				}
				outs[i].res, outs[i].err = sim.Run(cfg, w)
				outs[i].refs = len(w.Cores) * cfg.RefsPerCore
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()

	results := make(map[string]serve.CellResult, len(cells))
	var c simCounts
	for i, o := range outs {
		if o.err != nil {
			return "", fmt.Errorf("reference cell %s: %w", cells[i].Key(), o.err)
		}
		results[cells[i].Key()] = serve.CellResultFrom(cells[i].Key(), o.res)
		c.add(o.res, float64(o.refs), 1)
	}
	if r.trace {
		c.report(r)
	}
	points, err := dse.Frontier(cells, results)
	if err != nil {
		return "", err
	}
	return frontierDigest(points)
}

// startDaemon starts a daemon with cfg on an ephemeral loopback port.
func (r *run) startDaemon(cfg serve.Config) (*serve.Daemon, string, error) {
	sp := r.rec.begin("serve.New+Start", "setup", 0)
	defer r.rec.end(sp)
	d, _, err := serve.New(cfg)
	if err != nil {
		return nil, "", err
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		stopDaemon(d)
		return nil, "", err
	}
	return d, "http://" + addr.String(), nil
}

// stopDaemon drains a daemon; its jobs are all finished by then.
func stopDaemon(d *serve.Daemon) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.Shutdown(ctx)
}

// journalMetrics reports the daemon journal's group-commit counters
// over one phase, from the /healthz payloads at its ends.
func journalMetrics(r *run, h0, h1 serve.Health, jobs int) {
	if h0.Journal == nil || h1.Journal == nil {
		return
	}
	appends := float64(h1.Journal.Appends - h0.Journal.Appends)
	syncs := float64(h1.Journal.Syncs - h0.Journal.Syncs)
	if syncs > 0 {
		r.layer["commitlog.journal_appends_per_sync"] = appends / syncs
	}
	if jobs > 0 {
		r.layer["commitlog.journal_bytes_per_job"] = float64(h1.Journal.BytesWritten-h0.Journal.BytesWritten) / float64(jobs)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
