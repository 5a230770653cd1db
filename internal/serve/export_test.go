package serve

import (
	"context"
	"os"
	"sync"

	"dice/internal/commitlog"
)

// SetExecuteForTest sets the job executor of a daemon built from cfg.
// Test-binary only:
// the soak (package serve_test) wraps the real executor with a gate on
// its prefill jobs so backpressure engages deterministically instead of
// racing job runtime against submission rate — the simulator is now
// fast enough that real prefill jobs can drain as quickly as the
// journal-fsync'd submissions arrive.
func SetExecuteForTest(cfg *Config, fn func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error)) {
	cfg.execute = fn
}

// UseSerialJournalForTest makes a daemon built from cfg journal
// through the fsync-per-append reference instead of group commit: the
// baseline the group-commit gate (package serve_test) measures against.
func UseSerialJournalForTest(cfg *Config) {
	cfg.openJournal = openSerialJournal
}

// openSerialJournal replays path like OpenJournal, then appends to it
// through a serialLog.
func openSerialJournal(path string) (*Journal, *Replay, error) {
	j, rep, err := OpenJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if err := j.Close(); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{log: &serialLog{f: f}}, rep, nil
}

// serialLog is the discipline group commit replaced: each Enqueue
// writes and fsyncs its own record under a mutex before it returns.
// The daemon enqueues under its own lock, so concurrent submits queue
// behind one another's fsyncs, exactly as before batching. Stats count
// every record as a batch of one.
type serialLog struct {
	mu     sync.Mutex
	f      *os.File
	closed bool
	broken error // sticky first write/sync failure
	stats  commitlog.Stats
}

func (l *serialLog) Enqueue(payload []byte) commitlog.Ticket {
	line := commitlog.Frame(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return commitlog.Resolved(commitlog.ErrClosed)
	case l.broken != nil:
		return commitlog.Resolved(l.broken)
	}
	_, err := l.f.Write(line)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.broken = err
		return commitlog.Resolved(err)
	}
	l.stats.Appends++
	l.stats.Syncs++
	l.stats.BytesWritten += uint64(len(line))
	l.stats.MaxBatchRecords = 1
	l.stats.BatchHist[0]++
	return commitlog.Resolved(nil)
}

func (l *serialLog) Stats() commitlog.Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

func (l *serialLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
