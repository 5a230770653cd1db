package dcache

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dice/internal/dram"
	"dice/internal/fault"
)

// scanOccupied counts resident lines the slow way, set by set.
func scanOccupied(c *Cache) int {
	n := 0
	for i := range c.sets {
		n += c.sets[i].lineCount()
	}
	return n
}

// checkOccupancy asserts the conservation invariant behind the O(1)
// OccupiedLines: the resident counter equals a scan of every set, and in
// verify mode exactly the resident lines keep a stored encoding.
func checkOccupancy(t *testing.T, c *Cache, step int, op string) {
	t.Helper()
	scan := scanOccupied(c)
	if got := c.OccupiedLines(); got != scan {
		t.Fatalf("step %d (%s): OccupiedLines=%d, scan=%d", step, op, got, scan)
	}
	if c.encodings != nil && len(c.encodings) != scan {
		t.Fatalf("step %d (%s): %d stored encodings for %d resident lines", step, op, len(c.encodings), scan)
	}
}

// TestOccupancyCounterMatchesScan runs a randomized mix of demand reads,
// fills, writebacks and direct installs against every policy and
// organization, clean and under each fault policy, in verify mode, and
// checks the resident counter against a full scan after every operation.
// The fault runs exercise the flush, checksum-drop and quarantine-evict
// paths; the verify runs the encodings that live beside the entries.
func TestOccupancyCounterMatchesScan(t *testing.T) {
	policies := []Policy{PolicyUncompressed, PolicyTSI, PolicyNSI, PolicyBAI, PolicyDICE, PolicySCC}
	faults := []struct {
		name string
		ber  float64
		pol  fault.Policy
	}{
		{"clean", 0, 0},
		{"none", 0.002, fault.PolicyNone},
		{"ecc", 0.01, fault.PolicyECC},
		{"ecc+quarantine", 0.01, fault.PolicyECCQuarantine},
	}
	kinds := []string{"zero", "small", "random"}
	for _, pol := range policies {
		for _, org := range []Org{OrgAlloy, OrgKNL} {
			for _, f := range faults {
				t.Run(fmt.Sprintf("%v/org%d/%s", pol, org, f.name), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(uint64(pol)<<8|uint64(org), 0x0CC))
					data := newTestData()
					for l := uint64(0); l < 1024; l++ {
						data.set(l, kinds[rng.UintN(3)])
					}
					cfg := Config{Sets: 64, Policy: pol, Org: org, Mem: dram.New(dram.HBMConfig()),
						Data: data, VerifyData: true}
					if f.ber > 0 {
						m, err := fault.New(fault.Config{BER: f.ber, Seed: 7, Policy: f.pol})
						if err != nil {
							t.Fatal(err)
						}
						cfg.Faults = m
					}
					c := New(cfg)
					now := uint64(0)
					for step := 0; step < 6000; step++ {
						line := uint64(rng.UintN(1024))
						op := "read"
						switch rng.UintN(8) {
						case 0:
							op = "writeback"
							now = c.Writeback(now, line).Done
						case 1:
							op = "install"
							now = c.Install(now, line, rng.UintN(2) == 0).Done
						default:
							r := c.Read(now, line)
							now = r.Done
							if !r.Hit {
								op = "read+fill"
								now = c.Install(now, line, false).Done
							}
						}
						checkOccupancy(t, c, step, op)
					}
					st := c.Stats()
					if pol != PolicyUncompressed && st.VerifyChecks == 0 {
						t.Fatal("verify mode performed no checks")
					}
					if st.VerifyFailures != 0 {
						t.Fatalf("%d of %d verification checks failed", st.VerifyFailures, st.VerifyChecks)
					}
					silentRaw := pol == PolicyUncompressed && f.pol == fault.PolicyNone
					if f.ber > 0 && !silentRaw && st.FaultFlushedLines+st.FaultChecksumCaught == 0 {
						t.Fatalf("no fault dropped a line: %+v", st)
					}
					if f.pol == fault.PolicyECCQuarantine && st.FaultQuarantined == 0 {
						t.Fatal("no set quarantined")
					}
				})
			}
		}
	}
}

// TestOccupancyCounterDuplicateDrop forces DICE's duplicate-drop path — a
// line resident at its TSI location re-installed after its size crossed
// the threshold — which a stable data source never reaches, and checks
// the stale copy leaves the count.
func TestOccupancyCounterDuplicateDrop(t *testing.T) {
	data := newTestData()
	data.setRange(0, 1024, "random")
	c := New(Config{Sets: 64, Policy: PolicyDICE, Mem: dram.New(dram.HBMConfig()), Data: data, VerifyData: true})
	var line uint64
	for line = 0; Invariant(line, 64); line++ {
	}
	if res := c.Install(0, line, true); res.UsedBAI {
		t.Fatal("incompressible line installed at BAI")
	}
	checkOccupancy(t, c, 0, "install tsi")
	c.sizeMemo.cell(line).single = 1 // now sizes to 0B: BAI
	res := c.Install(0, line, false)
	if !res.UsedBAI || len(res.Victims) == 0 || res.Victims[0] != (Victim{Line: line, Dirty: true}) {
		t.Fatalf("re-install did not move the line to BAI and drop the dirty TSI copy: %+v", res)
	}
	checkOccupancy(t, c, 1, "install bai")
	if c.OccupiedLines() != 1 {
		t.Fatalf("OccupiedLines=%d after the move, want 1", c.OccupiedLines())
	}
}
