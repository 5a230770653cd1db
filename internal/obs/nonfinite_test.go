package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// nonFiniteSeries builds a two-epoch series whose second epoch carries
// NaN and both infinities in float fields, including inside the
// core_ipc vector.
func nonFiniteSeries() Series {
	return Series{
		SchemaVersion: SchemaVersion,
		EpochCycles:   100,
		Epochs: []Snapshot{
			{Epoch: 0, EndCycle: 100, Cycles: 100, IPC: 1.5, CoreIPC: []float64{1, 2}},
			{
				Epoch: 1, EndCycle: 200, Cycles: 100,
				IPC:         math.NaN(),
				CoreIPC:     []float64{math.Inf(1), 0.25},
				L4HitRate:   math.Inf(-1),
				EffCapacity: 2.5,
			},
		},
	}
}

// TestJSONRejectsNonFinite pins the JSON export's behavior on NaN/Inf:
// a clear error naming the epoch and field, instead of encoding/json's
// unlocated "unsupported value: NaN".
func TestJSONRejectsNonFinite(t *testing.T) {
	s := nonFiniteSeries()
	err := s.WriteJSON(&bytes.Buffer{})
	if err == nil {
		t.Fatal("WriteJSON accepted a NaN sample")
	}
	for _, want := range []string{"epoch 1", "ipc", "NaN"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}

	// The error locates the first offender in schema order; a vector
	// element is named with its index.
	s.Epochs[1].IPC = 1
	err = s.WriteJSON(&bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "core_ipc[0]") {
		t.Fatalf("error %v does not locate the vector element", err)
	}

	// Finite series still encode.
	s.Epochs[1].CoreIPC[0] = 3
	s.Epochs[1].L4HitRate = 0.5
	if err := s.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatalf("WriteJSON rejected a finite series: %v", err)
	}
}

// TestCSVNonFiniteRoundTrip pins the CSV export's behavior on NaN/Inf:
// strconv renders them as NaN/+Inf/-Inf and readCSV parses them back to
// the identical values, so no sample is ever silently altered.
func TestCSVNonFiniteRoundTrip(t *testing.T) {
	s := nonFiniteSeries()
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := readCSV(&buf)
	if err != nil {
		t.Fatalf("readCSV: %v", err)
	}
	if len(got.Epochs) != 2 {
		t.Fatalf("round-trip returned %d epochs, want 2", len(got.Epochs))
	}
	e := got.Epochs[1]
	if !math.IsNaN(e.IPC) {
		t.Fatalf("IPC round-tripped to %v, want NaN", e.IPC)
	}
	if !math.IsInf(e.CoreIPC[0], 1) {
		t.Fatalf("CoreIPC[0] round-tripped to %v, want +Inf", e.CoreIPC[0])
	}
	if !math.IsInf(e.L4HitRate, -1) {
		t.Fatalf("L4HitRate round-tripped to %v, want -Inf", e.L4HitRate)
	}
	if e.CoreIPC[1] != 0.25 || e.EffCapacity != 2.5 {
		t.Fatalf("finite fields altered: %+v", e)
	}
}
