package dram

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	good := HBMConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		func() Config { c := HBMConfig(); c.Channels = 0; return c }(),
		func() Config { c := HBMConfig(); c.Banks = -1; return c }(),
		func() Config { c := HBMConfig(); c.QueueDepth = 0; return c }(),
		func() Config { c := HBMConfig(); c.BeatBytes = 0; return c }(),
		func() Config { c := HBMConfig(); c.RowBytes = 0; return c }(),
		func() Config { c := HBMConfig(); c.InterleaveBytes = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// peakBandwidth is a device's aggregate peak bus bandwidth in bytes per
// CPU cycle.
func peakBandwidth(c Config) float64 {
	return float64(c.Channels*c.BeatBytes) / float64(c.CyclesPerBeat)
}

func TestPeakBandwidthRatio(t *testing.T) {
	ratio := peakBandwidth(HBMConfig()) / peakBandwidth(DDRConfig())
	if ratio != 8 {
		t.Fatalf("stacked:DDR bandwidth ratio = %v, want 8 (4x channels, 2x width)", ratio)
	}
}

func TestRowBufferHit(t *testing.T) {
	m := New(HBMConfig())
	loc := Loc{Channel: 0, Bank: 0, Row: 5}
	// First access: closed row -> tRCD + tCAS + burst.
	done1 := m.Access(0, loc, false, 80)
	wantFirst := uint64(44+44) + m.BurstCycles(80)
	if done1 != wantFirst {
		t.Fatalf("first access done = %d, want %d", done1, wantFirst)
	}
	// Second access to same row, issued after the first completes: tCAS only.
	done2 := m.Access(done1, loc, false, 80)
	if got := done2 - done1; got != uint64(44)+m.BurstCycles(80) {
		t.Fatalf("row hit latency = %d, want %d", got, uint64(44)+m.BurstCycles(80))
	}
	s := m.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 || s.RowConflicts != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRowConflictPaysPrecharge(t *testing.T) {
	cfg := HBMConfig()
	cfg.BatchFactor = 1 // every row switch pays the full row cycle
	m := New(cfg)
	a := Loc{Channel: 0, Bank: 0, Row: 1}
	b := Loc{Channel: 0, Bank: 0, Row: 2}
	done1 := m.Access(0, a, false, 80)
	// Conflict long after tRAS has elapsed: tRP + tRCD + tCAS.
	late := done1 + 1000
	done2 := m.Access(late, b, false, 80)
	want := uint64(44*3) + m.BurstCycles(80)
	if got := done2 - late; got != want {
		t.Fatalf("conflict latency = %d, want %d", got, want)
	}
	if m.Stats().RowConflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", m.Stats().RowConflicts)
	}
}

func TestConflictRespectsTRAS(t *testing.T) {
	cfg := HBMConfig()
	cfg.BatchFactor = 1
	m := New(cfg)
	a := Loc{Channel: 0, Bank: 0, Row: 1}
	b := Loc{Channel: 0, Bank: 0, Row: 2}
	m.Access(0, a, false, 16)
	// Activate happened at 0. A conflicting access right after the bank
	// frees must wait until tRAS (112) before precharging.
	burst := m.BurstCycles(16)
	firstDone := uint64(88) + burst
	done := m.Access(firstDone, b, false, 16)
	// Precharge start = max(firstDone, 0+112) = 112.
	want := uint64(112) + uint64(44*3) + burst
	if done != want {
		t.Fatalf("done = %d, want %d", done, want)
	}
}

func TestBusSerializesBursts(t *testing.T) {
	m := New(HBMConfig())
	// Two accesses to different banks on the same channel at the same time:
	// their core latencies overlap but the bursts must serialize on the bus.
	locA := Loc{Channel: 0, Bank: 0, Row: 1}
	locB := Loc{Channel: 0, Bank: 1, Row: 1}
	d1 := m.Access(0, locA, false, 80)
	d2 := m.Access(0, locB, false, 80)
	if d2 < d1+m.BurstCycles(80) {
		t.Fatalf("bursts overlapped: d1=%d d2=%d", d1, d2)
	}
	// Different channels do overlap fully.
	m2 := New(HBMConfig())
	e1 := m2.Access(0, Loc{Channel: 0, Bank: 0, Row: 1}, false, 80)
	e2 := m2.Access(0, Loc{Channel: 1, Bank: 0, Row: 1}, false, 80)
	if e1 != e2 {
		t.Fatalf("independent channels should complete together: %d vs %d", e1, e2)
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := HBMConfig()
	cfg.QueueDepth = 4
	m := New(cfg)
	loc := Loc{Channel: 0, Bank: 0, Row: 1}
	// Issue far more than QueueDepth requests at cycle 0; the 5th must be
	// pushed past the completion of the 1st.
	var dones []uint64
	for i := 0; i < 6; i++ {
		dones = append(dones, m.Access(0, loc, false, 80))
	}
	if m.Stats().QueueStallCycles == 0 {
		t.Fatal("expected queue stalls with depth 4 and 6 concurrent requests")
	}
	for i := 1; i < len(dones); i++ {
		if dones[i] <= dones[i-1] {
			t.Fatal("completions must be monotonic for same-bank requests")
		}
	}
}

func TestFRFCFSBatchingAbsorbsConflicts(t *testing.T) {
	m := New(HBMConfig()) // default BatchFactor 4
	a := Loc{Channel: 0, Bank: 0, Row: 1}
	b := Loc{Channel: 0, Bank: 0, Row: 2}
	now := uint64(0)
	for i := 0; i < 16; i++ { // alternate rows: every access conflicts
		loc := a
		if i%2 == 1 {
			loc = b
		}
		now = m.Access(now, loc, false, 80)
	}
	s := m.Stats()
	if s.RowConflicts == 0 {
		t.Fatal("alternating rows must conflict")
	}
	if s.RowBatched == 0 {
		t.Fatal("batching must absorb some conflicts")
	}
	// ~3/4 of conflicts ride a batch.
	frac := float64(s.RowBatched) / float64(s.RowConflicts)
	if frac < 0.6 || frac > 0.9 {
		t.Fatalf("batched fraction = %.2f, want ~0.75", frac)
	}
	// BatchFactor 1 must cost strictly more time for the same pattern.
	cfg := HBMConfig()
	cfg.BatchFactor = 1
	m1 := New(cfg)
	now1 := uint64(0)
	for i := 0; i < 16; i++ {
		loc := a
		if i%2 == 1 {
			loc = b
		}
		now1 = m1.Access(now1, loc, false, 80)
	}
	if now1 <= now {
		t.Fatalf("unbatched chain (%d) should be slower than batched (%d)", now1, now)
	}
}

func TestDecodeRowGranularityKeepsNeighborsTogether(t *testing.T) {
	m := New(HBMConfig()) // 2KB interleave
	// Addresses within one 2KB chunk decode identically.
	a := m.Decode(0)
	b := m.Decode(2047)
	if a != b {
		t.Fatalf("same-row addresses split: %+v vs %+v", a, b)
	}
	// Next chunk moves to the next channel.
	c := m.Decode(2048)
	if c.Channel != (a.Channel+1)%4 {
		t.Fatalf("chunk interleave broken: %+v -> %+v", a, c)
	}
}

func TestDecodeLineGranularity(t *testing.T) {
	m := New(DDRConfig()) // 64B interleave, 1 channel
	a := m.Decode(0)
	b := m.Decode(64)
	if a.Channel != 0 || b.Channel != 0 {
		t.Fatal("single channel config must always use channel 0")
	}
	// 2KB row / 64B = 32 chunks per row; address 64*32 starts bank 1.
	c := m.Decode(64 * 32)
	if c.Bank != 1 || c.Row != 0 {
		t.Fatalf("bank rotation broken: %+v", c)
	}
}

// Property: bus reservations never overlap and stay sorted — the
// gap-filling scheduler must behave like a real single data bus.
func TestQuickBusReservationsDisjoint(t *testing.T) {
	f := func(times []uint16, durs []uint8) bool {
		ch := &channel{}
		for i, tr := range times {
			dur := uint64(1)
			if i < len(durs) {
				dur += uint64(durs[i]) % 16
			}
			start := ch.reserveBus(uint64(tr), dur)
			if start < uint64(tr) {
				return false
			}
		}
		w := ch.window()
		for i := 1; i < len(w); i++ {
			if w[i].start < w[i-1].end {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBusGapFilling(t *testing.T) {
	ch := &channel{}
	// Reserve a late window, then an early one: the early transfer must
	// land in the idle gap before it, not behind it.
	late := ch.reserveBus(1000, 10)
	early := ch.reserveBus(5, 10)
	if late != 1000 {
		t.Fatalf("late start = %d", late)
	}
	if early != 5 {
		t.Fatalf("early transfer should use the idle gap, started at %d", early)
	}
	// A transfer that does not fit before the late window goes after it.
	big := ch.reserveBus(995, 10)
	if big != 1010 {
		t.Fatalf("conflicting transfer start = %d, want 1010", big)
	}
}

func TestInFlight(t *testing.T) {
	m := New(HBMConfig())
	loc := Loc{Channel: 2, Bank: 3, Row: 7}
	if m.InFlight(0, loc) != 0 {
		t.Fatal("fresh device has nothing in flight")
	}
	var done uint64
	for i := 0; i < 5; i++ {
		done = m.Access(0, loc, false, 80)
	}
	if n := m.InFlight(0, loc); n != 5 {
		t.Fatalf("in flight at 0 = %d, want 5", n)
	}
	if n := m.InFlight(done, loc); n != 0 {
		t.Fatalf("in flight after completion = %d, want 0", n)
	}
	// Other channels are independent.
	if n := m.InFlight(0, Loc{Channel: 0}); n != 0 {
		t.Fatalf("unused channel reports %d in flight", n)
	}
}

func TestWriteStats(t *testing.T) {
	m := New(DDRConfig())
	m.Access(0, Loc{}, true, 64)
	m.Access(0, Loc{}, false, 64)
	s := m.Stats()
	if s.Writes != 1 || s.Reads != 1 || s.BytesWritten != 64 || s.BytesRead != 64 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Accesses() != 2 {
		t.Fatalf("Accesses = %d", s.Accesses())
	}
	m.ResetStats()
	if m.Stats().Accesses() != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestBurstCycles(t *testing.T) {
	m := New(HBMConfig()) // 16B beats, 2 cycles each
	cases := map[int]uint64{80: 10, 64: 8, 16: 2, 1: 2, 17: 4}
	for bytes, want := range cases {
		if got := m.BurstCycles(bytes); got != want {
			t.Fatalf("BurstCycles(%d) = %d, want %d", bytes, got, want)
		}
	}
	// A beat width that is not a power of two takes the divide.
	cfg := HBMConfig()
	cfg.BeatBytes = 12
	odd := New(cfg)
	for bytes, want := range map[int]uint64{80: 14, 72: 12, 12: 2, 13: 4} {
		if got := odd.BurstCycles(bytes); got != want {
			t.Fatalf("12B beats: BurstCycles(%d) = %d, want %d", bytes, got, want)
		}
	}
}

func TestUtilizationBounded(t *testing.T) {
	m := New(HBMConfig())
	rng := rand.New(rand.NewPCG(1, 1))
	now := uint64(0)
	for i := 0; i < 1000; i++ {
		loc := Loc{Channel: int(rng.UintN(4)), Bank: int(rng.UintN(16)), Row: uint64(rng.UintN(64))}
		done := m.Access(now, loc, rng.UintN(4) == 0, 80)
		if done <= now {
			t.Fatal("completion must be after issue")
		}
		now += uint64(rng.UintN(20))
	}
	// Busy bus cycles over every channel's elapsed cycles.
	final := now + 10000
	u := float64(m.Stats().BusBusyCycles) / float64(final*uint64(m.Config().Channels))
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %v, want (0, 1]", u)
	}
}

// Property: completion time is always strictly greater than issue time and
// at least the burst length; statistics balance.
func TestQuickAccessInvariants(t *testing.T) {
	m := New(HBMConfig())
	f := func(chRaw, bankRaw uint8, row uint16, now uint32, write bool) bool {
		loc := Loc{Channel: int(chRaw) % 4, Bank: int(bankRaw) % 16, Row: uint64(row)}
		done := m.Access(uint64(now), loc, write, 80)
		return done >= uint64(now)+m.BurstCycles(80)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.RowHits+s.RowMisses+s.RowConflicts != s.Accesses() {
		t.Fatalf("row outcome counts %d do not sum to accesses %d",
			s.RowHits+s.RowMisses+s.RowConflicts, s.Accesses())
	}
}

// Property: Decode is stable and within geometry bounds for arbitrary
// addresses.
func TestQuickDecodeBounds(t *testing.T) {
	m := New(HBMConfig())
	f := func(addr uint64) bool {
		loc := m.Decode(addr)
		if loc != m.Decode(addr) {
			return false
		}
		return loc.Channel >= 0 && loc.Channel < 4 && loc.Bank >= 0 && loc.Bank < 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAccess measures one Access. random spreads requests over
// random rows at a steady issue rate. stream replays traffic shaped like
// the simulator's (see accessStream) into the stacked-DRAM and DDR
// configurations, and reports what its calls do to the channel's bus
// window: the share that land amid the history (amid-frac) and the mean
// number of retained reservations after their insert position
// (shift/amid).
func BenchmarkAccess(b *testing.B) {
	b.Run("random", func(b *testing.B) {
		m := New(HBMConfig())
		rng := rand.New(rand.NewPCG(1, 2))
		locs := make([]Loc, 1024)
		for i := range locs {
			locs[i] = Loc{Channel: int(rng.UintN(4)), Bank: int(rng.UintN(16)), Row: uint64(rng.UintN(256))}
		}
		b.ResetTimer()
		now := uint64(0)
		for i := 0; i < b.N; i++ {
			m.Access(now, locs[i%len(locs)], false, 80)
			now += 4
		}
	})
	b.Run("stream", func(b *testing.B) {
		for _, dev := range []struct {
			name   string
			cfg    Config
			bytes  int
			stride uint64
		}{
			{"hbm", HBMConfig(), 80, 72}, // 72B set frames, 80B transfers
			{"ddr", DDRConfig(), 64, 64},
		} {
			b.Run(dev.name, func(b *testing.B) {
				amid, shift := newAccessStream(dev.cfg, dev.bytes, dev.stride).profile(1 << 16)
				s := newAccessStream(dev.cfg, dev.bytes, dev.stride)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.access()
				}
				b.ReportMetric(amid, "amid-frac")
				b.ReportMetric(shift, "shift/amid")
			})
		}
	})
}

// streamIssuers and streamMLP shape accessStream: eight cores, each with
// six references in flight, as in the simulator's default configuration.
const (
	streamIssuers = 8
	streamMLP     = 6
)

// accessStream drives one Memory the way the simulator's cores do: a
// closed loop of issuers, each streaming through its own address range
// and issuing its next request at one of its own last streamMLP
// completions. Which issuer goes next and which completion it waits on
// are drawn up front into a table, so the timed loop only indexes it.
// The table gives every issuer the same number of turns, in shuffled
// order: within one pass an issuer that drew few turns lags behind the
// others, and its requests land deep in the bus history, but every
// issuer is level again when the table wraps, so the stream's shape
// does not drift with b.N.
type accessStream struct {
	m      *Memory
	bytes  int
	stride uint64
	picks  []uint8 // issuer + streamIssuers*completion slot, per call
	line   [streamIssuers]uint64
	done   [streamIssuers][streamMLP]uint64
	head   [streamIssuers]int // each issuer's oldest completion slot
	n      int
}

func newAccessStream(cfg Config, bytes int, stride uint64) *accessStream {
	s := &accessStream{m: New(cfg), bytes: bytes, stride: stride, picks: make([]uint8, 1<<16)}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range s.picks {
		s.picks[i] = uint8(i%streamIssuers + streamIssuers*rng.IntN(streamMLP))
	}
	rng.Shuffle(len(s.picks), func(i, j int) { s.picks[i], s.picks[j] = s.picks[j], s.picks[i] })
	for i := range s.line {
		s.line[i] = uint64(i) << 24 // disjoint streams
	}
	return s
}

// next returns the next call's issuer, its issue cycle and its location.
func (s *accessStream) next() (issuer int, now uint64, loc Loc) {
	p := int(s.picks[s.n&(len(s.picks)-1)])
	issuer = p % streamIssuers
	return issuer, s.done[issuer][p/streamIssuers], s.m.Decode(s.line[issuer] * s.stride)
}

// access issues the next call, records its completion and returns it.
func (s *accessStream) access() uint64 {
	i, now, loc := s.next()
	done := s.m.Access(now, loc, false, s.bytes)
	s.done[i][s.head[i]] = done
	s.head[i] = (s.head[i] + 1) % streamMLP
	s.line[i]++
	s.n++
	return done
}

// profile runs n calls and returns the share that landed amid their
// channel's bus history — placed before a retained reservation, or
// directly behind the last one — and the mean number of reservations
// after the insert position of those calls: the spans an
// element-by-element shift toward the window's end would move. An
// insert at position 0 of a full window is dropped and moves nothing.
func (s *accessStream) profile(n int) (amidFrac, meanShift float64) {
	var before []span
	amid, shifted := 0, 0
	for c := 0; c < n; c++ {
		_, _, loc := s.next()
		before = append(before[:0], s.m.channels[loc.Channel].window()...)
		start := s.access() - s.m.BurstCycles(s.bytes)
		if len(before) == 0 || start > before[len(before)-1].end {
			continue
		}
		amid++
		at := 0
		for at < len(before) && before[at].start < start {
			at++
		}
		if at > 0 || len(before) < busWindow {
			shifted += len(before) - at
		}
	}
	return float64(amid) / float64(n), float64(shifted) / float64(max(amid, 1))
}
