package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dice/internal/serve"
	"dice/internal/serve/client"
	"dice/internal/sim"
	"dice/internal/workloads"
)

const (
	// submitClients is the closed loop's client count, one per CPU of
	// the box the benchmark was sized on.
	submitClients = 2
	// submitRefsPerCore keeps each job's simulation small next to its
	// admission, journal commit and stream delivery.
	submitRefsPerCore = 50
	// submitScale shrinks the simulated system to 1/2^14 of the paper's
	// sizes, so that building the machine is as cheap as running it.
	submitScale = 14
)

// submitPolicies are the designs a job's cell draws from.
var submitPolicies = []string{"base", "tsi", "dice"}

// submitJob is one closed-loop job as its client saw it.
type submitJob struct {
	spec          serve.JobSpec
	id            string
	submit, total time.Duration // Submit call; Submit start to done event
	doneAt        time.Time
	output        []byte // the streamed cells, encoded as the job's output
	state         serve.JobState
}

// daemonSubmit drives an in-process daemon with a closed loop of
// clients: each submits a one-cell job the seed draws from the rate
// suite, follows its stream to the done event, then submits again.
func daemonSubmit(r *run) error {
	rate := workloads.Rate16()
	journal := filepath.Join(r.dir, "daemon.journal")
	cfg := serve.Config{JournalPath: journal, JobWorkers: submitClients}
	var d *serve.Daemon
	var base string
	teardown, err := r.setup(func() (func() error, error) {
		r.build(submitScale, rate...)
		if err := os.RemoveAll(journal); err != nil {
			return nil, err
		}
		var err error
		if d, base, err = r.startDaemon(cfg); err != nil {
			return nil, err
		}
		stop := d
		return func() error { return stopDaemon(stop) }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	rngs := make([]*rng, submitClients)
	for c := range rngs {
		rngs[c] = newRNG(r.seed<<8 | uint64(c))
	}
	ctx := context.Background()
	cl := client.New(base, 0)
	var (
		all, phase []submitJob
		h0, h1     serve.Health
	)
	refsPerJob := float64(8 * (submitRefsPerCore + submitRefsPerCore/2))
	err = r.measure(func(dur time.Duration) (tally, error) {
		var err error
		if h0, err = cl.Health(ctx); err != nil {
			return tally{}, err
		}
		phase = nil
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(dur)
		for c := 0; c < submitClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := client.New(base, int64(c+1))
				for time.Now().Before(deadline) {
					g := rngs[c]
					spec := serve.JobSpec{Cells: []serve.CellSpec{{
						Workload: rate[g.intn(len(rate))].Name,
						Policy:   submitPolicies[g.intn(len(submitPolicies))],
						Refs:     submitRefsPerCore,
						Scale:    submitScale,
					}}}
					j, err := r.submitOne(ctx, cl, spec)
					mu.Lock()
					if err != nil {
						r.check(false, "job %s: %v", j.id, err)
					} else {
						phase = append(phase, j)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		t := tally{elapsed: time.Since(start), refs: float64(len(phase)) * refsPerJob}
		all = append(all, phase...)
		h1, err = cl.Health(ctx)
		return t, err
	})
	if err != nil {
		return err
	}

	// Daemon-side stages of the last phase's jobs, read before shutdown.
	var queueWait, runMs, tail []float64
	retained := map[string]string{}
	for _, j := range phase {
		st, err := d.Status(j.id)
		if err != nil {
			r.check(false, "status %s: %v", j.id, err)
			continue
		}
		queueWait = append(queueWait, ms(st.StartedAt.Sub(st.SubmittedAt)))
		runMs = append(runMs, ms(st.FinishedAt.Sub(st.StartedAt)))
		tail = append(tail, ms(j.doneAt.Sub(st.FinishedAt)))
		if st.Output != "" {
			retained[j.id] = st.Output
		}
	}
	rejected := d.Stats().Rejected
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.layer["serve.heap_mb_end"] = float64(mem.HeapAlloc) / (1 << 20)
	if err := teardown(); err != nil {
		return err
	}

	// Replay the journal the run left, as a restarted daemon would.
	sp := r.rec.begin("serve.OpenJournal", "replay", 0)
	t0 := time.Now()
	j, rep, err := serve.OpenJournal(journal)
	r.layer["serve.replay_ms"] = ms(time.Since(t0))
	r.rec.end(sp)
	if err != nil {
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	r.check(rejected == 0, "daemon refused %d submissions", rejected)
	r.check(len(rep.Jobs) >= len(all), "journal replays %d jobs, %d were submitted", len(rep.Jobs), len(all))

	// Every job's output against serve.RunSpec of its spec.
	want := map[string]string{}
	for _, j := range all {
		key := j.spec.Cells[0].Key()
		ref, ok := want[key]
		if !ok {
			sp := r.rec.begin("serve.RunSpec", "reference", 0)
			ref, err = serve.RunSpec(ctx, j.spec, submitRefsPerCore)
			r.rec.end(sp)
			if err != nil {
				return err
			}
			want[key] = ref
		}
		r.check(j.state == serve.StateDone && string(j.output) == ref, "job %s: state %s, streamed output differs from serve.RunSpec", j.id, j.state)
		if out, ok := retained[j.id]; ok {
			r.check(out == ref, "job %s: status output differs from serve.RunSpec", j.id)
		}
	}

	elapsed := r.untraced.elapsed
	if r.trace {
		elapsed = r.traced.elapsed
	}
	submit := make([]float64, len(phase))
	total := make([]float64, len(phase))
	for i, j := range phase {
		submit[i], total[i] = ms(j.submit), ms(j.total)
	}
	r.layer["jobs_per_s"] = float64(len(phase)) / elapsed.Seconds()
	r.layer["cells_per_hour"] = float64(len(phase)) / elapsed.Hours()
	fmt.Printf("jobs = %d\njobs_per_s = %.2f jobs/s\n", len(phase), r.layer["jobs_per_s"])
	r.percentile("submit_p50_ms", submit, 0.50)
	r.percentile("submit_p99_ms", submit, 0.99)
	r.percentile("job_p50_ms", total, 0.50)
	r.percentile("job_p99_ms", total, 0.99)
	r.percentile("serve.queue_wait_ms_p50", queueWait, 0.50)
	r.percentile("serve.queue_wait_ms_p99", queueWait, 0.99)
	r.percentile("serve.run_ms_p50", runMs, 0.50)
	r.percentile("serve.stream_tail_ms_p50", tail, 0.50)
	r.percentile("serve.stream_tail_ms_p99", tail, 0.99)
	journalMetrics(r, h0, h1, len(phase))

	if r.trace {
		r.jobCounts(phase)
	}
	return nil
}

// submitOne submits one job and follows its stream to the done event.
func (r *run) submitOne(ctx context.Context, cl *client.Client, spec serve.JobSpec) (submitJob, error) {
	j := submitJob{spec: spec}
	t0 := time.Now()
	sp := r.rec.begin("client.Submit", "", 0)
	st, err := cl.Submit(ctx, spec)
	r.rec.end(sp)
	j.submit = time.Since(t0)
	if err != nil {
		return j, err
	}
	j.id = st.ID
	r.rec.relabel(sp, j.id)
	sp = r.rec.begin("client.Stream", j.id, 0)
	seen := map[string]bool{}
	var cells []serve.CellResult
	done, err := cl.Stream(ctx, j.id, func(ev serve.StreamEvent) error {
		// A re-delivered cell (new stream generation) is identical; keep one.
		if ev.Kind == serve.StreamCell && ev.Cell != nil && !seen[ev.Cell.Key] {
			seen[ev.Cell.Key] = true
			cells = append(cells, *ev.Cell)
		}
		return nil
	})
	j.doneAt = time.Now()
	r.rec.end(sp)
	j.total = j.doneAt.Sub(t0)
	if err != nil {
		return j, err
	}
	j.state = done.State
	var buf bytes.Buffer
	if err := serve.EncodeCellResults(&buf, cells); err != nil {
		return j, err
	}
	j.output = buf.Bytes()
	return j, nil
}

// jobCounts takes the simulated counts of a phase's jobs from one
// direct sim.Run per distinct cell, weighted by how often it ran.
func (r *run) jobCounts(jobs []submitJob) {
	n := map[serve.CellSpec]float64{}
	for _, j := range jobs {
		n[j.spec.Cells[0]]++
	}
	var c simCounts
	for cell, weight := range n {
		cfg, err := cell.Config(submitRefsPerCore)
		if err != nil {
			r.check(false, "cell %s: %v", cell.Key(), err)
			continue
		}
		w, err := workloads.ByName(cell.Workload)
		if err != nil {
			r.check(false, "cell %s: %v", cell.Key(), err)
			continue
		}
		res, err := sim.Run(cfg, w)
		if err != nil {
			r.check(false, "cell %s: %v", cell.Key(), err)
			continue
		}
		c.add(res, float64(len(w.Cores)*cfg.RefsPerCore), weight)
	}
	c.report(r)
	fmt.Printf("distinct cells = %d\n", len(n))
}
