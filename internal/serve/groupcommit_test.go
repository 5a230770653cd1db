package serve_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dice/internal/commitlog"
	"dice/internal/serve"
	"dice/internal/serve/client"
)

// submitConcurrency is how many clients the group-commit gate drives
// at once: the regime group commit exists for, where every in-flight
// submit shares the journal batch behind the sync in progress instead
// of queueing its own fsync.
const submitConcurrency = 32

// measureSubmitLatency measures the daemon's job-submission path —
// HTTP POST through the retrying client, spec validation, journal
// append, queue insert, response — over n submissions issued by
// `concurrency` clients against an in-process daemon on a real socket.
// The journal group-commits, or with serial set runs the
// fsync-per-append reference. It also returns the journal's counters,
// so callers can check the batching structurally, and fails unless
// the distribution holds n samples with 0 < p50 <= p99 <= p999. The
// queue holds every submission, so no sample is inflated by 429
// retries; the jobs are tiny and cancelled before shutdown.
func measureSubmitLatency(n, concurrency int, serial bool) (latencySummary, *commitlog.Stats, error) {
	dir, err := os.MkdirTemp("", "submit-latency-*")
	if err != nil {
		return latencySummary{}, nil, err
	}
	defer os.RemoveAll(dir)
	cfg := serve.Config{
		JournalPath: filepath.Join(dir, "bench.journal"),
		QueueCap:    n + 16,
		JobWorkers:  2,
	}
	if serial {
		serve.UseSerialJournalForTest(&cfg)
	}
	d, _, err := serve.New(cfg)
	if err != nil {
		return latencySummary{}, nil, err
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		return latencySummary{}, nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		d.Shutdown(ctx)
	}()

	// Sequential runs submit a small but real cell. Concurrent runs
	// shrink it to one reference: with tens of clients in flight on few
	// cores, running sims would otherwise saturate the CPU and the
	// distribution would measure scheduler contention, not the
	// submission path.
	refs := 200
	if concurrency > 1 {
		refs = 1
	}
	spec := serve.JobSpec{
		Cells: []serve.CellSpec{{Workload: "gcc", Policy: "dice", Refs: refs, Scale: 10}},
	}
	var (
		lat      latencies
		ids      = make([]string, n)
		next     atomic.Int64
		wg       sync.WaitGroup
		firstErr atomic.Value
	)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New("http://"+addr.String(), int64(w))
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				st, err := c.Submit(context.Background(), spec)
				if err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("submit %d: %w", i, err))
					return
				}
				lat.Observe(time.Since(t0))
				ids[i] = st.ID
			}
		}(w)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return latencySummary{}, nil, err
	}

	c := client.New("http://"+addr.String(), 1)
	health, err := c.Health(context.Background())
	if err != nil {
		return latencySummary{}, nil, err
	}
	if health.Journal == nil {
		return latencySummary{}, nil, fmt.Errorf("journal stats missing from /healthz")
	}
	// Cancel the still-queued tail so shutdown drains in bounded time;
	// cells already run (or running) are tiny either way.
	for _, id := range ids {
		c.Cancel(context.Background(), id)
	}

	s := lat.Summary()
	if s.Count != n {
		return s, nil, fmt.Errorf("measured %d samples, want %d", s.Count, n)
	}
	if !(s.P50 > 0 && s.P50 <= s.P99 && s.P99 <= s.P999) {
		return s, nil, fmt.Errorf("quantiles out of order: p50=%v p99=%v p999=%v", s.P50, s.P99, s.P999)
	}
	return s, health.Journal, nil
}

// TestSubmitLatencyEntry is the plain-tier check on the gate's
// measurement: a short sequential run yields a sane, ordered
// distribution, and the journal acknowledged every submit record. It
// asserts no performance.
func TestSubmitLatencyEntry(t *testing.T) {
	const n = 32
	s, st, err := measureSubmitLatency(n, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Appends < n {
		t.Fatalf("journal acknowledged %d appends for %d submits", st.Appends, n)
	}
	t.Logf("submit latency %v", s)
}

// TestGroupCommitSubmitGuard is the regression gate for the
// group-commit journal (DICE_SMOKE=1 gates the wall-clock assertion out
// of plain `go test ./...`): under concurrent submission load on the
// same machine, the batched journal must beat the fsync-per-append
// reference at p99 by at least the 1.05x smoke floor, and the journal
// counters must prove the batching structurally — materially fewer
// syncs than appends, with at least one multi-record batch — while the
// reference pays exactly one sync per append.
func TestGroupCommitSubmitGuard(t *testing.T) {
	if os.Getenv("DICE_SMOKE") == "" {
		t.Skip("set DICE_SMOKE=1 (make bench-smoke) to run the group-commit regression guard")
	}
	const n = 256
	batched, bstats, err := measureSubmitLatency(n, submitConcurrency, false)
	if err != nil {
		t.Fatal(err)
	}
	reference, rstats, err := measureSubmitLatency(n, submitConcurrency, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("batched:   p50 %v p99 %v (%d appends, %d syncs, max batch %d)",
		batched.P50, batched.P99, bstats.Appends, bstats.Syncs, bstats.MaxBatchRecords)
	t.Logf("reference: p50 %v p99 %v (%d appends, %d syncs)",
		reference.P50, reference.P99, rstats.Appends, rstats.Syncs)

	if rstats.Syncs != rstats.Appends {
		t.Fatalf("reference mode must sync per append: %d syncs for %d appends", rstats.Syncs, rstats.Appends)
	}
	if bstats.Syncs*2 > bstats.Appends || bstats.MaxBatchRecords < 2 {
		t.Fatalf("group commit did not batch: %d syncs for %d appends, max batch %d",
			bstats.Syncs, bstats.Appends, bstats.MaxBatchRecords)
	}
	const floor = 1.05
	if float64(reference.P99) < float64(batched.P99)*floor {
		t.Fatalf("batched submit p99 %v does not beat fsync-per-append p99 %v by the %.2fx smoke floor",
			batched.P99, reference.P99, floor)
	}
}
