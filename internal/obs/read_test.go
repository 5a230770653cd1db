package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
)

// Readers for the export formats. Only the round-trip tests parse
// series back, so the readers live beside them rather than in the
// package API.

// readJSON parses a series previously written by WriteJSON.
func readJSON(r io.Reader) (Series, error) {
	var s Series
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return Series{}, fmt.Errorf("obs: parsing series JSON: %w", err)
	}
	return s, nil
}

// readCSV parses a series previously written by WriteCSV. Only the
// epoch rows survive a CSV round-trip; SchemaVersion, EpochCycles and
// Dropped are derived (version current, period from the first two
// rows, dropped unknown and left zero).
func readCSV(r io.Reader) (Series, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return Series{}, fmt.Errorf("obs: parsing series CSV: %w", err)
	}
	if len(rows) == 0 {
		return Series{}, fmt.Errorf("obs: series CSV has no header")
	}
	header := rows[0]
	cores := 0
	for _, c := range header {
		if strings.HasPrefix(c, "core_ipc") {
			cores++
		}
	}
	if want := csvHeader(cores); !reflect.DeepEqual(header, want) {
		return Series{}, fmt.Errorf("obs: series CSV header %v does not match schema %v", header, want)
	}
	s := Series{SchemaVersion: SchemaVersion}
	for _, row := range rows[1:] {
		e, err := parseCSVRow(row, cores)
		if err != nil {
			return Series{}, err
		}
		s.Epochs = append(s.Epochs, e)
	}
	if len(s.Epochs) > 0 {
		s.EpochCycles = s.Epochs[0].Cycles
	}
	return s, nil
}

// parseCSVRow parses one epoch row in WriteCSV's column order.
func parseCSVRow(row []string, cores int) (Snapshot, error) {
	var e Snapshot
	i := 0
	next := func() string { v := row[i]; i++; return v }
	var err error
	u := func() uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		v, err = strconv.ParseUint(next(), 10, 64)
		return v
	}
	f := func() float64 {
		if err != nil {
			return 0
		}
		var v float64
		v, err = strconv.ParseFloat(next(), 64)
		return v
	}
	e.Epoch, e.EndCycle, e.Cycles, e.Refs, e.IPC = u(), u(), u(), u(), f()
	for c := 0; c < cores; c++ {
		e.CoreIPC = append(e.CoreIPC, f())
	}
	e.L4Reads, e.L4HitRate, e.L4Queue, e.L4BusUtil, e.L4BytesPerAccess = u(), f(), u(), f(), f()
	e.DDRReads, e.DDRWrites, e.DDRQueue, e.DDRBusUtil = u(), u(), u(), f()
	e.EffCapacity = f()
	e.InstallBAI, e.InstallTSI, e.InstallInvariant = u(), u(), u()
	e.CIPBAIFrac, e.CIPPolicyBAI, e.CIPAccuracy, e.CIPPredictions, e.CIPFlips = f(), u(), f(), u(), u()
	e.FaultCorrected, e.FaultDetected, e.FaultSilent, e.FaultRefetches = u(), u(), u(), u()
	e.QuarantinedSets = u()
	if err != nil {
		return Snapshot{}, fmt.Errorf("obs: parsing series CSV row: %w", err)
	}
	return e, nil
}
