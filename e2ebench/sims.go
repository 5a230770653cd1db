package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"dice/internal/dcache"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// simRefsPerCore is the measured budget of one sim-* run. Long runs
// reach the steady state the paper reports: the size memo hits ~99%
// here, against ~68% at the sweeps' 2000 refs/core.
const simRefsPerCore = 40_000

// Digests of the sim.Result of the default seed's inputs. A change
// that alters simulated behaviour must explain the new values.
const (
	diceLongDigest   = "df53c496113a69a56dd51660a3647703c120b7a1b717ab7a2c920cf420d0cf36"
	baseStreamDigest = "6af57a4ff316d969fe01bcd24717209719ac0b5e28f447aa323465e0a9fe379e"
)

// simDiceLong: DICE (Alloy, default threshold 36) on the 8-core mix1.
func simDiceLong(r *run) error {
	w, err := seededMix(r.seed)
	if err != nil {
		return err
	}
	cfg := sim.Config{Policy: dcache.PolicyDICE, Org: dcache.OrgAlloy, RefsPerCore: simRefsPerCore}
	return simWorkload(r, cfg, w, diceLongDigest)
}

// simBaseStream: uncompressed Alloy in rate mode on lbm, an
// incompressible streaming load.
func simBaseStream(r *run) error {
	w, err := seededStream(r.seed)
	if err != nil {
		return err
	}
	cfg := sim.Config{Policy: dcache.PolicyUncompressed, Org: dcache.OrgAlloy, RefsPerCore: simRefsPerCore}
	return simWorkload(r, cfg, w, baseStreamDigest)
}

// seededMix runs mix1, a fixed draw of 8 of the 16 SPEC loads. Other
// seeds run fresh instances of the same eight loads. (Drawing the eight
// per seed moved throughput from 1.03M to 1.37M refs/cpu-s across five
// seeds, which would let the seed, not the code, set the spread.)
func seededMix(seed uint64) (workloads.Workload, error) {
	w, err := workloads.ByName("mix1")
	if err != nil || seed == defaultSeed {
		return w, err
	}
	return reseeded(w, seed), nil
}

// seededStream runs lbm, the streaming FP stencil whose data is
// essentially incompressible. Other seeds run a fresh instance of it:
// the same access pattern and data profile, with new address and data
// streams. (Drawing among streaming loads would let the seed dominate
// the spread: libq simulates ~1.7x faster than lbm per host second.)
func seededStream(seed uint64) (workloads.Workload, error) {
	w, err := workloads.ByName("lbm")
	if err != nil || seed == defaultSeed {
		return w, err
	}
	return reseeded(w, seed), nil
}

// reseeded returns w with every core renamed after seed. A core's
// generator and data seeds derive from its name, so the copy draws new
// streams from the same load models.
func reseeded(w workloads.Workload, seed uint64) workloads.Workload {
	cores := make([]workloads.CoreLoad, len(w.Cores))
	for i, c := range w.Cores {
		c.Name = fmt.Sprintf("%s#%d", c.Name, seed)
		cores[i] = c
	}
	return workloads.Workload{Name: fmt.Sprintf("%s#%d", w.Name, seed), Suite: w.Suite, Cores: cores}
}

// simWorkload times back-to-back sim.Run calls of one (config,
// workload) pair and checks each result against the default seed's
// digest or, for other seeds, against sim.RunReference.
func simWorkload(r *run, cfg sim.Config, w workloads.Workload, defaultDigest string) error {
	teardown, err := r.setup(func() (func() error, error) {
		r.build(cfg.EffectiveScale(), w)
		return func() error { return nil }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	refsPerRun := float64(len(w.Cores) * (cfg.RefsPerCore + cfg.RefsPerCore/2)) // sim's default warmup is half the budget
	var digests []string
	var last sim.Result
	runs := 0
	err = r.measure(func(d time.Duration) (tally, error) {
		var t tally
		start := time.Now()
		for t.elapsed < d {
			runs++
			sp := r.rec.begin("sim.Run", fmt.Sprintf("run-%d", runs), 0)
			res, err := sim.Run(cfg, w)
			r.rec.end(sp)
			if err != nil {
				return t, err
			}
			t.refs += refsPerRun
			t.elapsed = time.Since(start)
			digests = append(digests, digestResult(res))
			last = res
		}
		return t, nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("runs = %d (%s, %d cores, %d refs/core + warmup)\n", runs, w.Name, len(w.Cores), cfg.RefsPerCore)

	want := defaultDigest
	if r.seed != defaultSeed {
		sp := r.rec.begin("sim.RunReference", "reference", 0)
		ref, err := sim.RunReference(cfg, w)
		r.rec.end(sp)
		if err != nil {
			return err
		}
		want = digestResult(ref)
	}
	for i, d := range digests {
		r.check(d == want, "run %d: result digest %s, want %s", i+1, d, want)
	}
	if r.trace {
		var c simCounts
		c.add(last, float64(len(w.Cores)*cfg.RefsPerCore), 1)
		c.report(r)
	}
	return nil
}

// digestResult fingerprints every field of a simulation result.
func digestResult(res sim.Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
	return hex.EncodeToString(sum[:])
}

// simCounts sums simulated statistics over results; they are exact and
// must repeat run to run.
type simCounts struct {
	memoHits, memoLookups, probes, reads, dramAccesses, measuredRefs float64
}

// add folds in one result, weighted (a result standing for several
// identical jobs counts once per job).
func (c *simCounts) add(res sim.Result, measuredRefs, weight float64) {
	c.memoHits += weight * float64(res.L4.SizeMemoHits)
	c.memoLookups += weight * float64(res.L4.SizeMemoHits+res.L4.SizeMemoMisses)
	c.probes += weight * float64(res.L4.Probes)
	c.reads += weight * float64(res.L4.Reads)
	c.dramAccesses += weight * float64(res.HBM.Reads+res.HBM.Writes+res.DDR.Reads+res.DDR.Writes)
	c.measuredRefs += weight * measuredRefs
}

func (c *simCounts) report(r *run) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r.layer["dcache.size_memo_hit_rate"] = ratio(c.memoHits, c.memoLookups)
	r.layer["dcache.probes_per_read"] = ratio(c.probes, c.reads)
	r.layer["dram.accesses_per_ref"] = ratio(c.dramAccesses, c.measuredRefs)
}

// rng is splitmix64: a fixed generator, so a seed names the same
// inputs on every Go release.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (g *rng) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (g *rng) intn(n int) int { return int(g.next() % uint64(n)) }

// perm is a Fisher-Yates permutation of [0, n).
func (g *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
