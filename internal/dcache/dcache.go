package dcache

import (
	"fmt"

	"dice/internal/compress"
	"dice/internal/dram"
	"dice/internal/fault"
	"dice/internal/obs"
)

// Policy selects the DRAM-cache design under evaluation.
type Policy uint8

// Cache policies evaluated by the paper.
const (
	// PolicyUncompressed is the baseline Alloy Cache: direct-mapped, one
	// 64B line per 72B TAD, Traditional Set Indexing.
	PolicyUncompressed Policy = iota
	// PolicyTSI compresses within TSI sets: capacity-only benefits
	// (Section 4.4, Figure 7).
	PolicyTSI
	// PolicyNSI uses naive spatial indexing for every line (Section 4.5).
	PolicyNSI
	// PolicyBAI uses bandwidth-aware indexing for every line (Section 4.5).
	PolicyBAI
	// PolicyDICE dynamically picks BAI or TSI per line by compressed size
	// and predicts the index with CIP (Section 5).
	PolicyDICE
	// PolicySCC models a Skewed Compressed Cache on the DRAM substrate:
	// compression with superblock tags, paying three additional tag
	// accesses per request (Section 7.3, Figure 15).
	PolicySCC
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyUncompressed:
		return "base"
	case PolicyTSI:
		return "tsi"
	case PolicyNSI:
		return "nsi"
	case PolicyBAI:
		return "bai"
	case PolicyDICE:
		return "dice"
	case PolicySCC:
		return "scc"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Org selects the physical organization of tags.
type Org uint8

// Organizations.
const (
	// OrgAlloy transfers 80B per access: the 72B TAD plus the neighboring
	// set's tags, so one probe resolves both candidate locations.
	OrgAlloy Org = iota
	// OrgKNL stores tags in ECC lanes (72B over four bursts) with no
	// neighbor-tag visibility: misses on non-invariant lines must probe
	// both candidate sets (Section 6.6).
	OrgKNL
)

// DataSource supplies the 64 data bytes of a line so the cache can
// compress on install. Data is deterministic per line in this simulator;
// returning nil marks a line incompressible.
type DataSource interface {
	Line(line uint64) []byte
}

// SizeSource is an optional DataSource extension that resolves sizes
// without handing the cache any bytes: SingleSize returns a line's
// exact compressed size (0..64) and PairSize the exact size of an even
// line compressed together with its odd buddy (0..128). The source
// chooses the compression algorithm. A DataSource without it is sized
// with the hybrid FPC+BDI compressor over Line. Either way the cache's
// per-address memo sits in front, so each line is asked about at most
// once per cache.
type SizeSource interface {
	SingleSize(line uint64) int
	PairSize(evenLine uint64) int
}

// DefaultThreshold is the DICE insertion threshold (Section 5.2): lines
// compressing to <= 36B install at their BAI location.
const DefaultThreshold = 36

// Config describes a DRAM cache instance.
type Config struct {
	// Sets is the number of physical 72B set frames. Must be a positive
	// even number (a 1GB cache has 16M sets; scaled runs use 2^14..2^17).
	Sets int
	// Policy is the design under evaluation.
	Policy Policy
	// Org is the physical tag organization.
	Org Org
	// Threshold is the DICE BAI-insertion threshold in bytes; 0 selects
	// DefaultThreshold. A threshold of 0 is expressed as -1 (degenerates
	// to always-TSI); 64 degenerates to always-BAI (Section 6.2).
	Threshold int
	// CIPEntries sizes the Last-Time Table; 0 selects DefaultCIPEntries.
	CIPEntries int
	// Mem is the stacked-DRAM device timing model behind the cache.
	Mem *dram.Memory
	// Data resolves line contents for compression (and, when it is a
	// SizeSource, their sizes). Required for compressed policies.
	Data DataSource
	// VerifyData makes the cache store each installed line's actual
	// hybrid encoding and, on every hit, decompress it and compare with
	// the data source — exercising the real codec path end to end. Costs
	// memory and time; intended for tests and debugging.
	VerifyData bool
	// Faults, when non-nil, injects bit errors into every demand-read
	// frame transfer and applies the model's ECC policy: detected-
	// uncorrectable errors flush the untrusted frame (would-be hits are
	// refetched from main memory by the caller's normal miss path), and
	// under fault.PolicyECCQuarantine repeatedly faulting sets fall back
	// to uncompressed single-line storage.
	Faults *fault.Model
	// Trace, when non-nil, receives structured observability events
	// (CIP policy flips, fault outcomes, set flushes and quarantines).
	// The tracer is read-only with respect to the cache: enabling it
	// never changes any simulated outcome.
	Trace *obs.Tracer
}

func (c Config) validate() error {
	switch {
	case c.Sets <= 0 || c.Sets%2 != 0:
		return fmt.Errorf("dcache: Sets must be positive and even, got %d", c.Sets)
	case c.Mem == nil:
		return fmt.Errorf("dcache: Mem is required")
	case c.Policy != PolicyUncompressed && c.Data == nil:
		return fmt.Errorf("dcache: compressed policy %v requires a DataSource", c.Policy)
	case c.Threshold > 64:
		return fmt.Errorf("dcache: Threshold %d > 64", c.Threshold)
	}
	return nil
}

// Stats aggregates cache activity. Hit/miss counters refer to demand
// reads; install counters classify the index decisions (Figure 11).
type Stats struct {
	Reads      uint64
	ReadHits   uint64
	ReadMisses uint64
	// Probes counts DRAM-cache accesses for reads (second probes make
	// Probes > Reads).
	Probes       uint64
	SecondProbes uint64
	// HitInAlternate counts hits found at the unpredicted location.
	HitInAlternate uint64
	// Extras counts adjacent lines delivered for free alongside demand
	// hits (candidates for L3 installation).
	Extras uint64

	Installs          uint64
	InstallInvariant  uint64 // TSI == BAI, no decision needed
	InstallBAI        uint64
	InstallTSI        uint64
	Evictions         uint64
	DirtyEvictions    uint64
	WritebackHits     uint64 // L3 writebacks that found the line resident
	WritebackAccesses uint64 // DRAM accesses performed for writebacks
	WritePredictions  uint64 // scored write-index predictions (Sec 5.3)
	WriteMispredicts  uint64 // writes found at the unpredicted location

	// VerifyChecks/VerifyFailures count data-integrity checks performed
	// in verify mode (Config.VerifyData): every hit decompresses the
	// stored encoding and compares it with the data source.
	VerifyChecks   uint64
	VerifyFailures uint64

	// SizeMemoHits/SizeMemoMisses count lookups of the per-line
	// compressed-size memo table (hits return a previously computed size
	// without touching the data source or the compressors). They are
	// performance observability only: the memo never changes a simulated
	// outcome, since sizes are deterministic per line.
	SizeMemoHits   uint64
	SizeMemoMisses uint64

	// Fault-injection effects (Config.Faults). FaultDetectedFrames counts
	// demand-read transfers whose ECC flagged an uncorrectable error;
	// FaultRefetches counts would-be hits converted to main-memory
	// refetches (by a frame flush or a checksum catch); FaultFlushedLines
	// and FaultDirtyLoss count resident lines invalidated by flushes and
	// the dirty ones among them (unrecoverable data loss); FaultChecksumCaught
	// counts silent corruptions caught by the per-line compression
	// checksum; FaultSilentHits counts corrupt hits served to the core
	// (uncompressed lines carry no checksum); FaultQuarantined counts
	// sets demoted to uncompressed storage.
	FaultDetectedFrames uint64
	FaultRefetches      uint64
	FaultFlushedLines   uint64
	FaultDirtyLoss      uint64
	FaultChecksumCaught uint64
	FaultSilentHits     uint64
	FaultQuarantined    uint64

	// InstallSizeBuckets histograms the compressed sizes of installed
	// lines in 8-byte buckets: [0]=0B, [1]=1-8B, ..., [8]=57-64B.
	InstallSizeBuckets [9]uint64
}

// WriteAccuracy returns the write-index prediction accuracy.
func (s Stats) WriteAccuracy() float64 {
	if s.WritePredictions == 0 {
		return 0
	}
	return float64(s.WritePredictions-s.WriteMispredicts) / float64(s.WritePredictions)
}

// HitRate returns the demand-read hit rate.
func (s Stats) HitRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadHits) / float64(s.Reads)
}

// Cache is one DRAM cache instance.
type Cache struct {
	cfg       Config
	threshold int
	sets      []set
	cip       *CIP
	stats     Stats

	// sizeMemo caches single/pair compressed sizes per line address; data
	// is deterministic per line so the memo never invalidates. sizes
	// answers its misses.
	sizeMemo sizeMemo
	sizes    SizeSource
	// resident counts the lines held across all sets; every membership
	// change (install, eviction, duplicate or checksum drop, set flush)
	// adjusts it.
	resident int
	// encodings holds each resident line's stored encoding in verify
	// mode (nil otherwise), kept off the set entries so they hold no
	// pointers.
	encodings map[uint64]compress.Encoding

	// faultCount tracks detected-uncorrectable faults per set and
	// quarantined marks sets demoted to uncompressed single-line storage
	// (fault.PolicyECCQuarantine). Both maps are membership-only — never
	// iterated — so they cannot perturb determinism.
	faultCount  map[uint64]uint8
	quarantined map[uint64]bool
}

// New builds a DRAM cache. It panics on invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultThreshold
	}
	if cfg.CIPEntries == 0 {
		cfg.CIPEntries = DefaultCIPEntries
	}
	c := &Cache{
		cfg:       cfg,
		threshold: cfg.Threshold,
		sets:      make([]set, cfg.Sets),
		cip:       NewCIP(cfg.CIPEntries),
	}
	// Seed every set with capacity for the common compressed occupancy
	// from one arena: the first installs into each set then append in
	// place instead of growing a fresh slice per set (visible as
	// growslice churn in simulation profiles). Sets needing more than
	// entryArenaCap lines fall back to ordinary append growth.
	arena := make([]entry, cfg.Sets*entryArenaCap)
	for i := range c.sets {
		base := i * entryArenaCap
		c.sets[i].entries = arena[base : base : base+entryArenaCap]
	}
	if src, ok := cfg.Data.(SizeSource); ok {
		c.sizes = src
	} else if cfg.Data != nil {
		c.sizes = hybridSizes{cfg.Data}
	}
	if cfg.VerifyData && cfg.Policy != PolicyUncompressed {
		c.encodings = make(map[uint64]compress.Encoding)
	}
	if cfg.Faults != nil {
		c.faultCount = make(map[uint64]uint8)
		c.quarantined = make(map[uint64]bool)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes statistics (contents and predictor state persist).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// CIP exposes the index predictor (for accuracy reporting).
func (c *Cache) CIP() *CIP { return c.cip }

// transferBytes returns the burst size of one cache access.
func (c *Cache) transferBytes() int {
	if c.cfg.Org == OrgKNL {
		return KNLTransferBytes
	}
	return TransferBytes
}

// frameLoc maps a set index to its DRAM location. Set frames are 72B and
// packed into 2KB rows, so ~28 consecutive sets share a row buffer —
// giving BAI's neighbor-set property its single-row guarantee.
func (c *Cache) frameLoc(setIdx uint64) dram.Loc {
	return c.cfg.Mem.Decode(setIdx * SetBytes)
}

// access charges one DRAM-cache access and returns its completion cycle.
func (c *Cache) access(now uint64, setIdx uint64, write bool) uint64 {
	return c.cfg.Mem.Access(now, c.frameLoc(setIdx), write, c.transferBytes())
}

// probeRead charges one demand-read access of setIdx and runs the frame
// transfer through the fault model. A detected-uncorrectable error means
// nothing in the frame — tags included — can be trusted: the whole set
// is flushed before the caller inspects it (a resident demand line
// becomes a main-memory refetch via the normal miss path), and under the
// quarantine policy repeat offenders are demoted to uncompressed
// storage. Only demand reads inject faults; writebacks and SCC tag
// probes are left clean so the model stays simple and comparable across
// policies (see DESIGN.md).
func (c *Cache) probeRead(now uint64, setIdx, line uint64) (uint64, fault.Outcome) {
	done := c.access(now, setIdx, false)
	c.stats.Probes++
	if c.cfg.Faults == nil {
		return done, fault.Clean
	}
	out := c.cfg.Faults.ReadFrame(c.transferBytes())
	if out == fault.Detected {
		c.stats.FaultDetectedFrames++
		if c.sets[setIdx].find(line) >= 0 {
			c.stats.FaultRefetches++
		}
		c.cfg.Trace.Emitf(done, obs.CompFault, "detected-frame",
			"set %d: uncorrectable ECC error, frame untrusted", setIdx)
		lines, dirty := c.flushSet(setIdx)
		if c.cfg.Trace.Enabled(obs.CompDCache) && lines > 0 {
			c.cfg.Trace.Emitf(done, obs.CompDCache, "flush",
				"set %d: %d lines invalidated (%d dirty, unrecoverable)", setIdx, lines, dirty)
		}
		c.noteFrameFault(done, setIdx)
	}
	return done, out
}

// flushSet discards every resident line of a set after an uncorrectable
// fault. This is where compression amplifies the blast radius: an
// uncompressed frame loses at most one line, a DICE frame up to
// MaxLinesPerSet. Dirty residents are unrecoverable data loss.
func (c *Cache) flushSet(setIdx uint64) (lines, dirty int) {
	s := &c.sets[setIdx]
	for i := range s.entries {
		lines++
		c.stats.FaultFlushedLines++
		if s.entries[i].dirty {
			dirty++
			c.stats.FaultDirtyLoss++
		}
		c.dropped(s.entries[i].line)
	}
	s.entries = nil
	return lines, dirty
}

// dropped records that line has left the cache.
func (c *Cache) dropped(line uint64) {
	c.resident--
	if c.encodings != nil {
		delete(c.encodings, line)
	}
}

// noteFrameFault records a detected-uncorrectable fault against a set
// and quarantines it once it has faulted fault.QuarantineAfter times.
func (c *Cache) noteFrameFault(now uint64, setIdx uint64) {
	if c.cfg.Faults.Policy() != fault.PolicyECCQuarantine || c.quarantined[setIdx] {
		return
	}
	c.faultCount[setIdx]++
	if c.faultCount[setIdx] >= fault.QuarantineAfter {
		c.quarantined[setIdx] = true
		c.stats.FaultQuarantined++
		c.cfg.Trace.Emitf(now, obs.CompDCache, "quarantine",
			"set %d: %d faults, demoted to uncompressed storage", setIdx, c.faultCount[setIdx])
	}
}

// QuarantineCount returns the number of sets currently demoted to
// uncompressed single-line storage.
func (c *Cache) QuarantineCount() int { return len(c.quarantined) }

// cipResolve is CIP.Resolve plus a policy-flip trace event when the
// update changes the page's stored policy. The flip check (one table
// read) runs only with cip tracing enabled.
func (c *Cache) cipResolve(now uint64, line uint64, predictedBAI, actualBAI bool) {
	if c.cfg.Trace.Enabled(obs.CompCIP) && c.cip.Predict(line) != actualBAI {
		c.cfg.Trace.Emitf(now, obs.CompCIP, "flip",
			"page %#x -> %s (line %#x)", line>>6, schemeLabel(actualBAI), line)
	}
	c.cip.Resolve(line, predictedBAI, actualBAI)
}

// cipTrain is CIP.Train plus the same policy-flip trace event.
func (c *Cache) cipTrain(now uint64, line uint64, actualBAI bool) {
	if c.cfg.Trace.Enabled(obs.CompCIP) && c.cip.Predict(line) != actualBAI {
		c.cfg.Trace.Emitf(now, obs.CompCIP, "flip",
			"page %#x -> %s (line %#x, install)", line>>6, schemeLabel(actualBAI), line)
	}
	c.cip.Train(line, actualBAI)
}

// schemeLabel names an index decision for trace output.
func schemeLabel(bai bool) string {
	if bai {
		return "bai"
	}
	return "tsi"
}

// --- compressed-size resolution (memoized) ---

// hybridSizes sizes a plain DataSource's lines with the hybrid
// compressor; nil data is incompressible.
type hybridSizes struct{ DataSource }

func (h hybridSizes) SingleSize(line uint64) int {
	return compressedSizeOf(h.Line(line))
}

func (h hybridSizes) PairSize(evenLine uint64) int {
	return pairCompressedSizeOf(h.Line(evenLine), h.Line(evenLine|1))
}

func (c *Cache) singleSize(line uint64) int {
	if c.cfg.Policy == PolicyUncompressed {
		return 64
	}
	cell := c.sizeMemo.cell(line)
	if cell.single != 0 {
		c.stats.SizeMemoHits++
		return int(cell.single) - 1
	}
	c.stats.SizeMemoMisses++
	sz := c.sizes.SingleSize(line)
	cell.single = uint8(sz) + 1
	return sz
}

func (c *Cache) pairSize(evenLine uint64) int {
	cell := c.sizeMemo.cell(evenLine)
	if cell.pair != 0 {
		c.stats.SizeMemoHits++
		return (int(cell.pair) - 1) * 2
	}
	c.stats.SizeMemoMisses++
	sz := c.sizes.PairSize(evenLine)
	// Pair sizes span 0..128; store /2 rounded up to fit a byte
	// losslessly enough (sizes are even in practice; odd sizes round
	// up by one byte, which only ever under-packs, never over-packs).
	cell.pair = uint8((sz+1)/2) + 1
	return (int(cell.pair) - 1) * 2
}

// schemeFor returns the indexing scheme the policy uses for installs of a
// given line, plus whether the line is invariant (TSI set == BAI set).
func (c *Cache) schemeFor(line uint64) (s Scheme, invariant bool) {
	switch c.cfg.Policy {
	case PolicyUncompressed, PolicyTSI, PolicySCC:
		return TSI, true // single location designs
	case PolicyNSI:
		return NSI, true
	case PolicyBAI:
		return BAI, true
	case PolicyDICE:
		if Invariant(line, c.cfg.Sets) {
			return TSI, true
		}
		if c.singleSize(line) <= c.threshold {
			return BAI, false
		}
		return TSI, false
	default:
		panic("dcache: unhandled policy")
	}
}

// setsFor returns the candidate set(s) of a line under the policy: the
// primary (install-time) location plus, for DICE, the alternate.
func (c *Cache) setsFor(line uint64) (tsiSet, baiSet uint64, dual bool) {
	switch c.cfg.Policy {
	case PolicyUncompressed, PolicyTSI, PolicySCC:
		s := Index(TSI, line, c.cfg.Sets)
		return s, s, false
	case PolicyNSI:
		s := Index(NSI, line, c.cfg.Sets)
		return s, s, false
	case PolicyBAI:
		s := Index(BAI, line, c.cfg.Sets)
		return s, s, false
	case PolicyDICE:
		t := Index(TSI, line, c.cfg.Sets)
		b := Index(BAI, line, c.cfg.Sets)
		return t, b, t != b
	default:
		panic("dcache: unhandled policy")
	}
}

// spatialPolicy reports whether this policy co-locates adjacent lines, so
// that a demand hit can deliver the buddy as a useful extra line.
func (c *Cache) spatialPolicy() bool {
	switch c.cfg.Policy {
	case PolicyNSI, PolicyBAI, PolicyDICE:
		return true
	default:
		return false
	}
}

// sccExtraProbes is the additional tag accesses SCC performs per request
// (three tag reads besides the data access, Section 7.3).
const sccExtraProbes = 3

// sccTagBytes is the transfer size of one SCC tag lookup: the superblock
// tag group of a skewed location, not a full TAD.
const sccTagBytes = 16

// sccProbe charges SCC's extra tag lookups at skewed set locations. The
// three lookups are independent skewed hash locations, so they proceed in
// parallel across banks; the request waits for all of them.
func (c *Cache) sccProbe(now uint64, line uint64) uint64 {
	done := now
	for i := 1; i <= sccExtraProbes; i++ {
		skew := Index(TSI, line*0x9E3779B9+uint64(i)*0x85EBCA6B, c.cfg.Sets)
		d := c.cfg.Mem.Access(now, c.frameLoc(skew), false, sccTagBytes)
		if d > done {
			done = d
		}
		c.stats.Probes++
	}
	return done
}

// ReadResult reports one demand read.
type ReadResult struct {
	// Done is the cycle the demand data is available (hit) or the cycle
	// the miss determination completed (miss) — the caller then fetches
	// from main memory.
	Done uint64
	Hit  bool
	// Extra is the adjacent line delivered by the same access (an
	// install candidate for L3), valid when HasExtra is set. A spatial
	// hit delivers at most the buddy, so a scalar avoids allocating a
	// slice on the simulator's per-read path.
	Extra    uint64
	HasExtra bool
	// UsedBAI reports where a hit was found (for CIP studies).
	UsedBAI bool
	// SecondProbe is true when the alternate location had to be accessed.
	SecondProbe bool
}

// Read performs a demand lookup of line at cycle now.
func (c *Cache) Read(now uint64, line uint64) ReadResult {
	c.stats.Reads++
	tsiSet, baiSet, dual := c.setsFor(line)

	if c.cfg.Policy == PolicySCC {
		now = c.sccProbe(now, line)
	}

	if !dual {
		done, out := c.probeRead(now, tsiSet, line)
		return c.finishRead(done, tsiSet, line, false, out)
	}

	// DICE: predict which location to probe first.
	predictBAI := c.cip.Predict(line)
	first, second := tsiSet, baiSet
	if predictBAI {
		first, second = baiSet, tsiSet
	}
	done, out := c.probeRead(now, first, line)

	if i := c.sets[first].find(line); i >= 0 {
		c.cipResolve(done, line, predictBAI, c.sets[first].entries[i].bai)
		return c.finishRead(done, first, line, predictBAI, out)
	}

	// Not in the predicted set. Whether we must touch the second set
	// depends on the organization:
	//   Alloy: the 80B transfer exposed the alternate set's tags, so we
	//   know residency; a second access happens only to fetch data.
	//   KNL: no neighbor tags; the alternate must be probed to decide.
	inAlternate := c.sets[second].find(line) >= 0
	if inAlternate {
		var out2 fault.Outcome
		done, out2 = c.probeRead(done, second, line)
		c.stats.SecondProbes++
		res := c.finishRead(done, second, line, !predictBAI, out2)
		if res.Hit {
			c.stats.HitInAlternate++
			c.cipResolve(done, line, predictBAI, !predictBAI)
		} else {
			// A fault destroyed the alternate copy mid-lookup; train CIP
			// toward where the imminent refill will go.
			c.cipResolve(done, line, predictBAI, c.predictInstallBAI(line))
		}
		return res
	}
	if c.cfg.Org == OrgKNL {
		// Must verify the alternate before declaring a miss. Same row as
		// the first probe, so the device model prices it as a row hit;
		// the controller merges adjacent probes when it can.
		done, _ = c.probeRead(done, second, line)
		c.stats.SecondProbes++
	}
	c.cipResolve(done, line, predictBAI, c.predictInstallBAI(line))
	c.stats.ReadMisses++
	return ReadResult{Done: done, Hit: false}
}

// predictInstallBAI returns the index policy an install of this line
// would pick right now — used to train CIP on misses so the table
// reflects the location the imminent fill will use.
func (c *Cache) predictInstallBAI(line uint64) bool {
	if c.cfg.Policy != PolicyDICE || Invariant(line, c.cfg.Sets) {
		return false
	}
	return c.singleSize(line) <= c.threshold
}

// finishRead completes a hit/miss determination against a probed set,
// applying the probe's fault outcome to a would-be hit.
func (c *Cache) finishRead(done uint64, setIdx uint64, line uint64, usedBAI bool, out fault.Outcome) ReadResult {
	s := &c.sets[setIdx]
	i := s.find(line)
	if i < 0 {
		c.stats.ReadMisses++
		return ReadResult{Done: done, Hit: false}
	}
	if out == fault.Silent {
		if c.cfg.Policy == PolicyUncompressed || c.quarantined[setIdx] {
			// Raw lines carry no checksum: the corruption reaches the core
			// undetected (silent data corruption).
			c.stats.FaultSilentHits++
			c.cfg.Trace.Emitf(done, obs.CompFault, "silent-hit",
				"set %d line %#x: corrupt raw line served to the core", setIdx, line)
		} else {
			// Compressed lines carry a checksum (compress.LineSum): the
			// decode notices, the untrusted line is dropped, and the caller
			// refetches from main memory via the normal miss path.
			c.stats.FaultChecksumCaught++
			c.stats.FaultRefetches++
			c.cfg.Trace.Emitf(done, obs.CompFault, "checksum-caught",
				"set %d line %#x: corrupt encoding dropped, refetching", setIdx, line)
			e := s.remove(i)
			c.dropped(e.line)
			s.repack(c)
			if e.dirty {
				c.stats.FaultDirtyLoss++
			}
			c.stats.ReadMisses++
			return ReadResult{Done: done, Hit: false}
		}
	}
	s.touch(i)
	c.stats.ReadHits++
	if c.encodings != nil {
		c.verifyLine(line)
	}
	res := ReadResult{Done: done, Hit: true, UsedBAI: usedBAI}
	if c.spatialPolicy() {
		if j := s.find(Buddy(line)); j >= 0 {
			res.Extra = Buddy(line)
			res.HasExtra = true
			c.stats.Extras++
			s.touch(j)
		}
	}
	return res
}

// verifyLine decompresses a resident line's stored encoding and checks
// it against the data source (verify mode): the full codec path runs on
// every hit.
func (c *Cache) verifyLine(line uint64) {
	enc, ok := c.encodings[line]
	if !ok {
		return
	}
	c.stats.VerifyChecks++
	want := c.cfg.Data.Line(line)
	got, err := compress.DecompressChecked(enc)
	if err != nil || want == nil || len(got) != len(want) {
		c.stats.VerifyFailures++
		return
	}
	for i := range got {
		if got[i] != want[i] {
			c.stats.VerifyFailures++
			return
		}
	}
}

// Victim is a line displaced from the cache.
type Victim struct {
	Line  uint64
	Dirty bool
}

// InstallResult reports one fill or writeback-install.
type InstallResult struct {
	Done    uint64
	Victims []Victim
	// UsedBAI reports the index decision for non-invariant lines.
	UsedBAI   bool
	Invariant bool
}

// Install fills line after a demand miss. The set was already read by the
// failed probe, so only the TAD write is charged. dirty marks lines
// installed by a write-allocate fill.
func (c *Cache) Install(now uint64, line uint64, dirty bool) InstallResult {
	return c.install(now, line, dirty, false)
}

// Writeback handles a dirty line arriving from L3. If the line is
// resident it is updated in place; otherwise it is installed under the
// current policy. A writeback must first read the target set (the probe
// was not part of a demand read), then write it: two accesses.
func (c *Cache) Writeback(now uint64, line uint64) InstallResult {
	tsiSet, baiSet, dual := c.setsFor(line)

	// Write-index prediction (Section 5.3): the data is in hand, so the
	// predicted index comes from its compressibility — the same rule the
	// insertion policy uses (95% accurate in the paper, since the line
	// usually re-installs where the rule already placed it).
	first, second := tsiSet, baiSet
	predictBAI := dual && c.predictInstallBAI(line)
	if predictBAI {
		first, second = baiSet, tsiSet
	}
	done := c.access(now, first, false)
	c.stats.WritebackAccesses++

	if i := c.sets[first].find(line); i >= 0 {
		if dual {
			c.stats.WritePredictions++
		}
		c.sets[first].entries[i].dirty = true
		c.sets[first].touch(i)
		c.stats.WritebackHits++
		done = c.access(done, first, true)
		c.stats.WritebackAccesses++
		return InstallResult{Done: done}
	}
	if dual {
		// The Alloy transfer exposes the neighbor set's tags; on KNL the
		// alternate must be probed explicitly before concluding.
		inAlternate := c.sets[second].find(line) >= 0
		if inAlternate || c.cfg.Org == OrgKNL {
			done = c.access(done, second, false)
			c.stats.WritebackAccesses++
		}
		if inAlternate {
			c.stats.WritePredictions++
			c.stats.WriteMispredicts++
			i := c.sets[second].find(line)
			c.sets[second].entries[i].dirty = true
			c.sets[second].touch(i)
			c.stats.WritebackHits++
			done = c.access(done, second, true)
			c.stats.WritebackAccesses++
			return InstallResult{Done: done}
		}
	}
	res := c.install(done, line, true, true)
	c.stats.WritebackAccesses++
	return res
}

// install places line into its policy-selected set, evicting residents
// until it fits, then charges the TAD write.
func (c *Cache) install(now uint64, line uint64, dirty bool, fromWriteback bool) InstallResult {
	scheme, invariant := c.schemeFor(line)
	setIdx := Index(scheme, line, c.cfg.Sets)
	usedBAI := scheme == BAI && !invariant

	c.stats.Installs++
	switch {
	case c.cfg.Policy != PolicyDICE:
		// Static policies have no decision to record.
	case invariant:
		c.stats.InstallInvariant++
	case usedBAI:
		c.stats.InstallBAI++
		c.cipTrain(now, line, true)
	default:
		c.stats.InstallTSI++
		c.cipTrain(now, line, false)
	}

	s := &c.sets[setIdx]
	var victims []Victim

	// Duplicate safety: an install always follows a lookup that proved
	// absence, but a policy flip between lookup and install (sizes are
	// stable, so only possible through direct API use) could strand a
	// stale copy at the alternate location. Drop it.
	if c.cfg.Policy == PolicyDICE && !invariant {
		alt := Index(TSI, line, c.cfg.Sets)
		if usedBAI {
			// alt is TSI set already.
		} else {
			alt = Index(BAI, line, c.cfg.Sets)
		}
		if i := c.sets[alt].find(line); i >= 0 {
			e := c.sets[alt].remove(i)
			c.dropped(e.line)
			c.sets[alt].repack(c)
			if e.dirty {
				victims = append(victims, Victim{Line: e.line, Dirty: true})
			}
		}
	}

	// Insert at MRU, then evict LRU entries until the set fits both the
	// byte budget and the line-count cap. The demand line itself (index
	// 0) is never selected as victim; a single line always fits (4+64).
	if i := s.find(line); i >= 0 {
		s.entries[i].dirty = s.entries[i].dirty || dirty
		s.touch(i)
	} else {
		s.entries = append(s.entries, entry{})
		copy(s.entries[1:], s.entries)
		s.entries[0] = entry{line: line, dirty: dirty, bai: usedBAI}
		c.resident++
		if c.encodings != nil {
			if data := c.cfg.Data.Line(line); data != nil {
				c.encodings[line] = compress.CompressBest(data)
			}
		}
		c.stats.InstallSizeBuckets[(c.singleSize(line)+7)/8]++
	}
	s.repack(c)
	for s.usage() > SetBytes || s.lineCount() > MaxLinesPerSet {
		v, ok := s.evictLRU(0)
		if !ok {
			panic("dcache: single line exceeds set frame")
		}
		c.dropped(v.line)
		c.stats.Evictions++
		if v.dirty {
			c.stats.DirtyEvictions++
		}
		victims = append(victims, Victim{Line: v.line, Dirty: v.dirty})
		s.repack(c)
	}

	// A quarantined frame falls back to uncompressed storage: one line
	// per set, so the next fault corrupts a single raw line instead of a
	// whole compressed set.
	if len(c.quarantined) > 0 && c.quarantined[setIdx] {
		for s.lineCount() > 1 {
			v, _ := s.evictLRU(0)
			c.dropped(v.line)
			c.stats.Evictions++
			if v.dirty {
				c.stats.DirtyEvictions++
			}
			victims = append(victims, Victim{Line: v.line, Dirty: v.dirty})
			s.repack(c)
		}
	}

	if c.cfg.Policy == PolicySCC && !fromWriteback {
		now = c.sccProbe(now, line)
	}
	done := c.access(now, setIdx, true)
	return InstallResult{Done: done, Victims: victims, UsedBAI: usedBAI, Invariant: invariant}
}

// Contains reports whether line is resident at either candidate location
// (no statistics, no LRU effects).
func (c *Cache) Contains(line uint64) bool {
	tsiSet, baiSet, _ := c.setsFor(line)
	if c.sets[tsiSet].find(line) >= 0 {
		return true
	}
	return tsiSet != baiSet && c.sets[baiSet].find(line) >= 0
}

// OccupiedLines counts resident logical lines; the ratio to Sets is the
// effective capacity multiplier of Table 5 (the uncompressed cache holds
// exactly one line per set when warm).
func (c *Cache) OccupiedLines() int { return c.resident }

// EffectiveCapacity returns occupied lines / sets.
func (c *Cache) EffectiveCapacity() float64 {
	return float64(c.OccupiedLines()) / float64(c.cfg.Sets)
}
