package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d", c.Value())
	}
	var misses Counter
	misses.Add(5)
	if r := c.Ratio(misses); r != 0.5 {
		t.Fatalf("ratio = %v", r)
	}
	if r := Counter(0).Ratio(0); r != 0 {
		t.Fatalf("empty ratio = %v", r)
	}
	if f := c.Frac(10); f != 0.5 {
		t.Fatalf("frac = %v", f)
	}
	if f := c.Frac(0); f != 0 {
		t.Fatalf("zero-total frac = %v", f)
	}
}

func TestSet(t *testing.T) {
	s := NewSet()
	s.Add("b", 2)
	s.Add("a", 1)
	s.Add("b", 3)
	if s.Get("b") != 5 || s.Get("a") != 1 || s.Get("zzz") != 0 {
		t.Fatal("get values wrong")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Fatalf("names = %v (insertion order)", names)
	}
	str := s.String()
	if !strings.Contains(str, "a=1") || !strings.Contains(str, "b=5") {
		t.Fatalf("string = %q", str)
	}
	if strings.Index(str, "a=1") > strings.Index(str, "b=5") {
		t.Fatal("String() must sort by name")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean = %v", g)
	}
	if g := GeoMean(nil); g != 1 {
		t.Fatalf("empty geomean = %v", g)
	}
	if g := GeoMean([]float64{-1, 0}); g != 1 {
		t.Fatalf("non-positive geomean = %v", g)
	}
	if g := GeoMean([]float64{3, -1, 3}); math.Abs(g-3) > 1e-12 {
		t.Fatalf("mixed geomean = %v", g)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
}

// Property: GeoMean of positive values lies between min and max.
func TestQuickGeoMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)/100 + 0.01
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
