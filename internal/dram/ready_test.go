package dram

import (
	"math/rand/v2"
	"testing"
)

// Quick-checks for the channel ready-time surfaces the event-driven
// simulator core leans on. Each is pinned against an independent mirror
// model driven purely by Access's observable behavior: NextBusFree must
// equal the running maximum of every completion cycle Access has
// returned on the channel, and NextCompletion — a minimum over the
// channel's queued completions — must equal the same minimum over a
// mirror FIFO that replicates Access's drain rules exactly.

// TestQuickNextBusFreeMatchesAccessMax drives random access streams
// (forward jumps and MLP-style replays of earlier cycles, as in the
// reserveBus quick-checks) and asserts NextBusFree(ch) equals the
// largest Access return seen on that channel so far.
func TestQuickNextBusFreeMatchesAccessMax(t *testing.T) {
	cfg := HBMConfig()
	cfg.QueueDepth = 8
	m := New(cfg)
	rng := rand.New(rand.NewPCG(13, 37))
	maxDone := make([]uint64, cfg.Channels)
	// Before any access every channel reports 0: no pending reservations.
	for c := 0; c < cfg.Channels; c++ {
		if got := m.NextBusFree(Loc{Channel: c}); got != 0 {
			t.Fatalf("pristine channel %d: NextBusFree = %d, want 0", c, got)
		}
	}
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		loc := Loc{Channel: int(rng.UintN(4)), Bank: int(rng.UintN(16)), Row: uint64(rng.UintN(32))}
		switch rng.UintN(4) {
		case 0:
			now += uint64(rng.UintN(500))
		case 1:
			if now > 200 {
				now -= uint64(rng.UintN(200))
			}
		}
		done := m.Access(now, loc, rng.UintN(4) == 0, 80)
		if done > maxDone[loc.Channel] {
			maxDone[loc.Channel] = done
		}
		for c := 0; c < cfg.Channels; c++ {
			if got := m.NextBusFree(Loc{Channel: c}); got != maxDone[c] {
				t.Fatalf("step %d: NextBusFree(ch%d) = %d, want %d (running max of Access returns)",
					i, c, got, maxDone[c])
			}
		}
	}
}

// mirrorQueue replicates Access's queue drain logic observably: the
// same pops on full-queue stalls and completed-entry drains, fed only
// by (now, done) pairs taken from Access calls.
type mirrorQueue struct {
	depth int
	fifo  []uint64
}

// access mirrors one Access(now)->done on the queue: a full queue pops
// its FIFO head (the stalled-entry drain), otherwise completed entries
// drain from the head.
func (q *mirrorQueue) access(now, done uint64) {
	if len(q.fifo) == q.depth {
		q.fifo = q.fifo[1:]
	} else {
		for len(q.fifo) > 0 && q.fifo[0] <= now {
			q.fifo = q.fifo[1:]
		}
	}
	q.fifo = append(q.fifo, done)
}

// next returns the minimum pending completion, scanning the whole FIFO
// (completions are not ordered by queue position).
func (q *mirrorQueue) next() (uint64, bool) {
	if len(q.fifo) == 0 {
		return 0, false
	}
	min := q.fifo[0]
	for _, d := range q.fifo[1:] {
		if d < min {
			min = d
		}
	}
	return min, true
}

// TestQuickNextCompletionMatchesMirror pins NextCompletion against the
// mirror FIFO over the same adversarial access stream, including the
// full-queue stall path (depth 8 forces it) and the empty case.
func TestQuickNextCompletionMatchesMirror(t *testing.T) {
	cfg := HBMConfig()
	cfg.QueueDepth = 8
	m := New(cfg)
	rng := rand.New(rand.NewPCG(99, 7))
	mirrors := make([]mirrorQueue, cfg.Channels)
	for c := range mirrors {
		mirrors[c].depth = cfg.QueueDepth
	}
	for c := 0; c < cfg.Channels; c++ {
		if _, ok := m.NextCompletion(Loc{Channel: c}); ok {
			t.Fatalf("pristine channel %d: NextCompletion reports a pending epoch", c)
		}
	}
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		loc := Loc{Channel: int(rng.UintN(4)), Bank: int(rng.UintN(16)), Row: uint64(rng.UintN(32))}
		switch rng.UintN(4) {
		case 0:
			now += uint64(rng.UintN(500))
		case 1:
			if now > 200 {
				now -= uint64(rng.UintN(200))
			}
		}
		done := m.Access(now, loc, rng.UintN(4) == 0, 80)
		mirrors[loc.Channel].access(now, done)
		for c := 0; c < cfg.Channels; c++ {
			want, wantOK := mirrors[c].next()
			got, gotOK := m.NextCompletion(Loc{Channel: c})
			if gotOK != wantOK || (gotOK && got != want) {
				t.Fatalf("step %d: NextCompletion(ch%d) = (%d,%v), want (%d,%v)",
					i, c, got, gotOK, want, wantOK)
			}
		}
	}
}

// TestNextBusFreeDominatesCompletions pins the relationship between the
// two ready-times an event scheduler composes: every pending completion
// is a bus transfer, so the next in-flight completion can never lie
// past the bus-free epoch.
func TestNextBusFreeDominatesCompletions(t *testing.T) {
	cfg := HBMConfig()
	cfg.QueueDepth = 8
	m := New(cfg)
	rng := rand.New(rand.NewPCG(3, 21))
	now := uint64(0)
	for i := 0; i < 2000; i++ {
		loc := Loc{Channel: int(rng.UintN(4)), Bank: int(rng.UintN(16)), Row: uint64(rng.UintN(32))}
		now += uint64(rng.UintN(200))
		m.Access(now, loc, false, 80)
		for c := 0; c < cfg.Channels; c++ {
			cloc := Loc{Channel: c}
			if next, ok := m.NextCompletion(cloc); ok {
				if free := m.NextBusFree(cloc); next > free {
					t.Fatalf("step %d: ch%d NextCompletion %d past NextBusFree %d",
						i, c, next, free)
				}
			}
		}
	}
}
