package sim

import (
	"math/rand"
	"testing"
)

// TestEventHeapOrdering checks the hand-rolled heap pops events in
// (when, kind, core-index) order — the strict total order the event
// core's determinism rests on — across random push/pop interleavings
// mixing core and epoch events.
func TestEventHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(16)
		var h eventHeap
		for i := 0; i < n; i++ {
			ev := schedEvent{when: uint64(rng.Intn(8))}
			if rng.Intn(4) == 0 {
				ev.kind = evEpoch
			} else {
				ev.kind = evCore
				ev.c = &core{idx: i}
			}
			h = append(h, ev)
		}
		// Heapify by re-pushing (append above built an arbitrary slice).
		raw := append(eventHeap(nil), h...)
		h = h[:0]
		for _, ev := range raw {
			h.push(ev)
		}
		var prev *schedEvent
		for len(h) > 0 {
			ev := h.pop()
			if prev != nil && ev.before(*prev) {
				t.Fatalf("trial %d: popped (%d,%d) after (%d,%d)",
					trial, ev.when, ev.kind, prev.when, prev.kind)
			}
			p := ev
			prev = &p
			// Re-push with a later time half the time, like the scheduler.
			if ev.kind == evCore && rng.Intn(2) == 0 && len(h) < n {
				ev.when += uint64(1 + rng.Intn(4))
				h.push(ev)
				prev = nil
			}
		}
	}
}

// TestEventHeapSameCycleOrder pins the same-cycle tie-breaks the
// determinism argument depends on: epoch events precede core events at
// an equal cycle, and same-cycle core events dispatch in core-index
// order.
func TestEventHeapSameCycleOrder(t *testing.T) {
	var h eventHeap
	for _, idx := range []int{5, 2, 7, 0, 3} {
		h.push(schedEvent{when: 10, kind: evCore, c: &core{idx: idx}})
	}
	h.push(schedEvent{when: 10, kind: evEpoch})
	h.push(schedEvent{when: 9, kind: evCore, c: &core{idx: 6}})

	want := []struct {
		when uint64
		kind eventKind
		idx  int
	}{
		{9, evCore, 6},
		{10, evEpoch, -1},
		{10, evCore, 0},
		{10, evCore, 2},
		{10, evCore, 3},
		{10, evCore, 5},
		{10, evCore, 7},
	}
	for i, w := range want {
		ev := h.pop()
		if ev.when != w.when || ev.kind != w.kind {
			t.Fatalf("pop %d: got (when=%d, kind=%d), want (when=%d, kind=%d)",
				i, ev.when, ev.kind, w.when, w.kind)
		}
		if w.kind == evCore && ev.c.idx != w.idx {
			t.Fatalf("pop %d: got core %d, want core %d", i, ev.c.idx, w.idx)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d events left", len(h))
	}
}

// TestEventHeapPopClearsSlot is the regression test for the heap-slot
// leak carried over from the retired coreHeap. The dispatch loop pops
// only a core that has finished, and pop must nil the vacated slot's
// core pointer so that finished *core doesn't stay reachable (pinning
// the core and everything it references) for as long as the slice's
// backing array lives. The cores here are rescheduled in place a few
// times first, as in a run, then finish one by one.
func TestEventHeapPopClearsSlot(t *testing.T) {
	h := make(eventHeap, 0, 8)
	for i := 0; i < 8; i++ {
		h.push(schedEvent{when: uint64(100 - i), kind: evCore, c: &core{idx: i}})
	}
	for i := 0; i < 24; i++ {
		h.reschedule(h[0].when + uint64(1+i%5))
	}
	for len(h) > 0 {
		h.pop()
	}
	// Every slot of the backing array must have been cleared on pop.
	for i, ev := range h[:cap(h)] {
		if ev.c != nil {
			t.Fatalf("backing array slot %d still pins core %d after pop", i, ev.c.idx)
		}
	}
}

// TestInsertSorted pins the outstanding-window insert: ascending order
// maintained for front, middle and back insertions (the append-pad-
// then-shift path), including duplicates.
func TestInsertSorted(t *testing.T) {
	cases := []struct {
		name string
		have []uint64
		v    uint64
		want []uint64
	}{
		{name: "empty", have: nil, v: 5, want: []uint64{5}},
		{name: "back", have: []uint64{1, 2, 3}, v: 9, want: []uint64{1, 2, 3, 9}},
		{name: "front", have: []uint64{4, 5, 6}, v: 1, want: []uint64{1, 4, 5, 6}},
		{name: "middle", have: []uint64{1, 5, 9}, v: 6, want: []uint64{1, 5, 6, 9}},
		{name: "duplicate", have: []uint64{3, 3, 7}, v: 3, want: []uint64{3, 3, 3, 7}},
		{name: "equal to back", have: []uint64{2, 8}, v: 8, want: []uint64{2, 8, 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := insertSorted(append([]uint64(nil), tc.have...), tc.v)
			if len(got) != len(tc.want) {
				t.Fatalf("insertSorted(%v, %d) = %v, want %v", tc.have, tc.v, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("insertSorted(%v, %d) = %v, want %v", tc.have, tc.v, got, tc.want)
				}
			}
		})
	}
}

// TestInsertSortedReusesCapacity checks the retire-then-insert cycle
// never grows past the pre-sized window capacity, so the hot loop runs
// allocation-free.
func TestInsertSortedReusesCapacity(t *testing.T) {
	const window = 6
	s := make([]uint64, 0, window+1)
	base := &s[:1][0]
	for i := 0; i < 1000; i++ {
		if len(s) >= window {
			n := copy(s, s[1:])
			s = s[:n]
		}
		s = insertSorted(s, uint64(i*7%97))
		if cap(s) != window+1 || &s[:1][0] != base {
			t.Fatalf("iteration %d: backing array reallocated (cap %d)", i, cap(s))
		}
	}
}
