// Package stats provides lightweight counters, named counter sets, and
// ratio and mean helpers used by every component of the simulator. All
// types are plain values with no locking: one simulation runs on one
// goroutine by design, so the hot-path counter increments stay free of
// synchronization cost.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter uint64

// Inc adds one event.
func (c *Counter) Inc() { *c++ }

// Add adds n events.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Value returns the current count.
func (c Counter) Value() uint64 { return uint64(c) }

// Ratio returns c / (c + other), or 0 when both are zero. It is the
// canonical hit-rate helper: hits.Ratio(misses).
func (c Counter) Ratio(other Counter) float64 {
	total := uint64(c) + uint64(other)
	if total == 0 {
		return 0
	}
	return float64(c) / float64(total)
}

// Frac returns c / total, or 0 when total is zero.
func (c Counter) Frac(total Counter) float64 {
	if total == 0 {
		return 0
	}
	return float64(c) / float64(total)
}

// Set is an ordered collection of named counters, useful for dumping
// component stats in a stable order.
type Set struct {
	names  []string
	values map[string]uint64
}

// NewSet returns an empty stats set.
func NewSet() *Set {
	return &Set{values: make(map[string]uint64)}
}

// Add accumulates n into the named counter, creating it on first use.
func (s *Set) Add(name string, n uint64) {
	if _, ok := s.values[name]; !ok {
		s.names = append(s.names, name)
	}
	s.values[name] += n
}

// Get returns the named counter value (0 if absent).
func (s *Set) Get(name string) uint64 { return s.values[name] }

// Names returns the counter names in insertion order.
func (s *Set) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// String renders the set as "name=value" lines sorted by name.
func (s *Set) String() string {
	names := make([]string, len(s.names))
	copy(names, s.names)
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d\n", n, s.values[n])
	}
	return b.String()
}

// GeoMean returns the geometric mean of xs. Non-positive entries are
// skipped; an empty input yields 1.0 (the multiplicative identity), which is
// the natural normalization for speedup aggregation.
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		logSum += math.Log(x)
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
