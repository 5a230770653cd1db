package dram

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// refChannel is the pre-fast-path bus scheduler: an append/copy slice
// scanned linearly from the start on every reservation. It is kept here
// verbatim as the executable specification that the windowed
// implementation must match reservation-for-reservation — the experiment goldens were
// produced by this code.
type refChannel struct {
	busy []span
}

func (ch *refChannel) reserveBus(earliest, dur uint64) uint64 {
	s := earliest
	insertAt := len(ch.busy)
	for i, b := range ch.busy {
		if b.end <= s {
			continue
		}
		if b.start >= s+dur {
			insertAt = i
			break
		}
		s = b.end
	}
	if insertAt == len(ch.busy) {
		ch.busy = append(ch.busy, span{s, s + dur})
	} else {
		ch.busy = append(ch.busy, span{})
		copy(ch.busy[insertAt+1:], ch.busy[insertAt:])
		ch.busy[insertAt] = span{s, s + dur}
	}
	if len(ch.busy) > busWindow {
		ch.busy = ch.busy[len(ch.busy)-busWindow:]
	}
	return s
}

// sameWindow reports whether ch retains exactly the reference's window.
func sameWindow(ch *channel, ref *refChannel) bool {
	w := ch.window()
	if len(w) != len(ref.busy) {
		return false
	}
	for i := range w {
		if w[i] != ref.busy[i] {
			return false
		}
	}
	return true
}

// Property: the windowed scheduler returns the same start time as the
// reference for every reservation of an arbitrary stream AND retains an
// identical busy window afterwards — bit-exactness of every golden
// depends on this. prefill appends up to two windows of spaced spans
// first, so streams also start from a full window at every offset of
// the backing array, compaction boundary included.
func TestQuickReserveBusMatchesReference(t *testing.T) {
	f := func(prefill uint8, times []uint16, durs []uint8, jumps []uint32) bool {
		ch := &channel{}
		ref := &refChannel{}
		base := uint64(0)
		for i := 0; i < int(prefill)%(2*busWindow+1); i++ {
			base += 30
			ch.reserveBus(base, 10)
			ref.reserveBus(base, 10)
		}
		// Land some streams amid the prefill, never before cycle 0.
		base -= min(base, uint64(prefill)%4*500)
		for i, tr := range times {
			dur := uint64(1)
			if i < len(durs) {
				dur += uint64(durs[i]) % 24
			}
			// Occasional large forward jumps exercise the append fast
			// path; small offsets exercise gap filling and the full-window
			// insert/trim edge cases.
			if i < len(jumps) && jumps[i]%7 == 0 {
				base += uint64(jumps[i] % 100_000)
			}
			earliest := base + uint64(tr)
			if ch.reserveBus(earliest, dur) != ref.reserveBus(earliest, dur) {
				return false
			}
		}
		return sameWindow(ch, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestReserveBusFullWindowEdge pins the bounded-history edge case: with
// a full 64-entry window, a reservation that would insert at position 0
// gets its start time honored but is immediately trimmed out of the
// retained history (oldest of 65). The window must reproduce that, not
// "fix" it.
func TestReserveBusFullWindowEdge(t *testing.T) {
	ch := &channel{}
	ref := &refChannel{}
	// Fill the window with spans [100,110), [200,210), ... leaving gaps.
	for i := 1; i <= busWindow; i++ {
		at := uint64(i * 100)
		ch.reserveBus(at, 10)
		ref.reserveBus(at, 10)
	}
	if n := len(ch.window()); n != busWindow {
		t.Fatalf("window len = %d, want %d", n, busWindow)
	}
	// An early reservation fits in the gap before the oldest span.
	got, want := ch.reserveBus(5, 10), ref.reserveBus(5, 10)
	if got != want || got != 5 {
		t.Fatalf("early start = %d, ref = %d, want 5", got, want)
	}
	if !sameWindow(ch, ref) {
		t.Fatalf("window %+v, ref %+v", ch.window(), ref.busy)
	}
	// The trimmed-away span must NOT appear: the retained oldest is still
	// the original [100,110).
	if first := ch.window()[0]; first.start != 100 {
		t.Fatalf("oldest retained span starts at %d, want 100", first.start)
	}
}

// TestReserveBusFullWindowEveryPosition inserts into a full window at
// every position 0..busWindow-1, from every offset of the window in its
// backing array: lo = 0 through lo = busWindow, where hi sits at the
// array's end and the insert must compact first. Positions below the
// middle shift the spans before them left, the rest shift the spans
// after them right; both directions must occur and every case must
// match the reference.
func TestReserveBusFullWindowEveryPosition(t *testing.T) {
	const gap = 100
	var left, right, compacted int
	for off := 0; off <= busWindow; off++ {
		for pos := 0; pos < busWindow; pos++ {
			ch := &channel{}
			ref := &refChannel{}
			for j := 1; j <= busWindow+off; j++ {
				ch.reserveBus(uint64(j*gap), 10)
				ref.reserveBus(uint64(j*gap), 10)
			}
			if ch.lo != off || ch.hi != off+busWindow {
				t.Fatalf("prefill of %d: window at [%d,%d), want [%d,%d)",
					busWindow+off, ch.lo, ch.hi, off, off+busWindow)
			}
			if ch.hi == len(ch.busy) {
				compacted++
			}
			// Midway into the gap before window position pos.
			earliest := uint64((off+1+pos)*gap - gap/2)
			got, want := ch.reserveBus(earliest, 10), ref.reserveBus(earliest, 10)
			if got != want || got != earliest {
				t.Fatalf("off %d pos %d: start %d, ref %d, want %d", off, pos, got, want, earliest)
			}
			if !sameWindow(ch, ref) {
				t.Fatalf("off %d pos %d: window %+v\nref %+v", off, pos, ch.window(), ref.busy)
			}
			switch {
			case pos == 0:
			case pos-1 <= busWindow-pos:
				left++
			default:
				right++
			}
			// The channel keeps working from the post-insert state.
			got, want = ch.reserveBus(earliest, 10), ref.reserveBus(earliest, 10)
			if got != want || !sameWindow(ch, ref) {
				t.Fatalf("off %d pos %d: follow-up diverged: %d vs %d", off, pos, got, want)
			}
		}
	}
	if left == 0 || right == 0 || compacted == 0 {
		t.Fatalf("coverage: %d left shifts, %d right shifts, %d at the array end", left, right, compacted)
	}
}

// TestReserveBusSoakMatchesReference runs a long random stream shaped
// like simulator traffic — a slowly advancing clock, most reservations
// landing amid the retained history, occasional far jumps — and checks
// the start time and the whole retained window after every call. With
// this seed about two thirds of the calls insert into a full window,
// at every one of its positions.
func TestReserveBusSoakMatchesReference(t *testing.T) {
	ops := 1_000_000
	if testing.Short() {
		ops = 100_000
	}
	rng := rand.New(rand.NewPCG(5, 8))
	ch := &channel{}
	ref := &refChannel{}
	now := uint64(0)
	for i := 0; i < ops; i++ {
		now += uint64(rng.UintN(12))
		if rng.UintN(1000) == 0 {
			now += uint64(rng.UintN(5000))
		}
		earliest := now + uint64(rng.UintN(600))
		dur := 1 + uint64(rng.UintN(8))
		if rng.UintN(4) == 0 {
			dur += uint64(rng.UintN(16))
		}
		got, want := ch.reserveBus(earliest, dur), ref.reserveBus(earliest, dur)
		if got != want {
			t.Fatalf("op %d: reserveBus(%d, %d) = %d, ref %d", i, earliest, dur, got, want)
		}
		if !sameWindow(ch, ref) {
			t.Fatalf("op %d: window diverged from the reference", i)
		}
	}
}

// refInFlight is the query's definition: a modulo scan over the
// occupied slots of the queue ring, counting completions after now.
func refInFlight(ch *channel, now uint64) int {
	n := 0
	for i := 0; i < ch.count; i++ {
		if ch.queue[(ch.head+i)%len(ch.queue)] > now {
			n++
		}
	}
	return n
}

// Property: InFlight and InFlightTotal, which scan the ring's two
// contiguous segments, match the modulo scan at arbitrary probe times —
// including times older than queued completions (the MLP-window
// replays that make a purely maintained counter impossible) —
// throughout a random access stream that wraps the ring.
func TestQuickInFlightMatchesReference(t *testing.T) {
	cfg := HBMConfig()
	cfg.QueueDepth = 8 // small depth: exercises full-queue pops and wrap
	m := New(cfg)
	rng := rand.New(rand.NewPCG(7, 11))
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		loc := Loc{Channel: int(rng.UintN(4)), Bank: int(rng.UintN(16)), Row: uint64(rng.UintN(32))}
		// Non-monotone issue times: jump forward, occasionally replay an
		// earlier cycle the way the MLP window and far-future DDR fills do.
		switch rng.UintN(4) {
		case 0:
			now += uint64(rng.UintN(500))
		case 1:
			if now > 200 {
				now -= uint64(rng.UintN(200))
			}
		}
		m.Access(now, loc, rng.UintN(4) == 0, 80)
		probe := now
		if rng.UintN(2) == 0 {
			probe += uint64(rng.UintN(2000))
		}
		wantTotal := 0
		for c := range m.channels {
			ch := &m.channels[c]
			want := refInFlight(ch, probe)
			wantTotal += want
			if got := m.InFlight(probe, Loc{Channel: c}); got != want {
				t.Fatalf("step %d: InFlight(ch%d, %d) = %d, want %d", i, c, probe, got, want)
			}
		}
		if got := m.InFlightTotal(probe); got != wantTotal {
			t.Fatalf("step %d: InFlightTotal(%d) = %d, want %d", i, probe, got, wantTotal)
		}
	}
}

// BenchmarkReserveBus measures the scheduler under a saturated bus: the
// window is always full, so the slice reference rescanned all 64 spans
// while the window appends or binary-searches.
func BenchmarkReserveBus(b *testing.B) {
	for _, mode := range []string{"append", "gapfill"} {
		b.Run(mode, func(b *testing.B) {
			ch := &channel{}
			now := uint64(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if mode == "append" {
					now += 10
					ch.reserveBus(now, 10)
				} else {
					// Alternate far/near so half the calls land amid the
					// retained history.
					if i%2 == 0 {
						now += 40
						ch.reserveBus(now+1000, 10)
					} else {
						ch.reserveBus(now, 10)
					}
				}
			}
		})
	}
}

// BenchmarkInFlightTotal is the per-epoch metrics gauge: a scan of every
// channel's queue, O(channels x queue), once per epoch.
func BenchmarkInFlightTotal(b *testing.B) {
	for _, depth := range []int{96, 384, 1536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			cfg := HBMConfig()
			cfg.QueueDepth = depth
			m := New(cfg)
			for c := 0; c < cfg.Channels; c++ {
				for i := 0; i < depth; i++ {
					m.Access(0, Loc{Channel: c, Bank: 0, Row: 1}, false, 80)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.InFlightTotal(0)
			}
		})
	}
}
