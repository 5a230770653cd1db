package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one public call the benchmark made, timed from outside.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = top level
	Group  string `json:"group"`            // shared by the spans of one job, cell, run or sweep
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was created
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run writes them out. A nil
// *spanLog records nothing, which is how untraced phases run.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID, to be passed to end and used
// as the parent of nested spans.
func (l *spanLog) begin(name, group string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Group: group, Name: name, Start: now})
	return len(l.spans)
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// relabel sets the group of a span opened before its group was known
// (a submit's span, before the daemon assigned the job ID).
func (l *spanLog) relabel(id int, group string) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].Group = group
	l.mu.Unlock()
}

// write stores every span as one JSON array and prints, per span name,
// the call count, total time and self time (duration minus the part of
// its interval that child spans cover).
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	byName := map[string]*agg{}
	child := map[int]int64{} // span ID -> nanoseconds covered by its children
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range l.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.total += time.Duration(s.End - s.Start)
		a.self += time.Duration(s.End - s.Start - child[s.ID])
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("spans: %d written to %s\n", len(l.spans), path)
	for _, n := range names {
		a := byName[n]
		fmt.Printf("  %-24s n=%-6d total=%-12v self=%v\n", n, a.n, a.total.Round(time.Microsecond), a.self.Round(time.Microsecond))
	}
	return nil
}
