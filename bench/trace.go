package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call into one layer, as trace-<workload>.jsonl
// holds it. Spans of one operation share OpID; Parent is the ID of the
// span one rung up (-1 at the http rung, -2 for a side span that is on
// no operation's blocking path).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"` // the layer
	Call   string `json:"call"` // the entry point called
	OpID   int    `json:"op_id"`
	Kind   string `json:"op_kind"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Allocs and Bytes are the Go heap's malloc count and byte deltas
	// across the call: in-process spans only (the http rung runs in the
	// daemon, whose heap the driver cannot see).
	Allocs int64 `json:"allocs"`
	Bytes  int64 `json:"alloc_bytes"`
}

const (
	noParent = -1
	sideSpan = -2
)

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// remote times a call whose work happens in the daemon.
func (t *tracer) remote(op int, kind string, parent int, layer, call string, f func()) int {
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{ID: len(t.spans), Name: layer, Call: call, OpID: op, Kind: kind,
		Parent: parent, Start: int64(start), End: int64(end)})
	return len(t.spans) - 1
}

// local times an in-process call and charges it the heap allocations
// made while it ran. The driver is single-goroutine during the ladder,
// so the deltas belong to the call; the MemStats reads sit outside the
// timed interval.
func (t *tracer) local(op int, kind string, parent int, layer, call string, f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.remote(op, kind, parent, layer, call, f)
	runtime.ReadMemStats(&after)
	t.spans[id].Allocs = int64(after.Mallocs - before.Mallocs)
	t.spans[id].Bytes = int64(after.TotalAlloc - before.TotalAlloc)
	return id
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cost is what one layer spent on one operation, net of the rungs below
// it.
type cost struct {
	ns, allocs, bytes int64
}

// selfCosts charges every span its duration (and allocations) minus
// those of its direct children, and sums the result per (operation,
// layer). Rungs are replayed one after another rather than nested in
// time, so a child is whatever names the span as its Parent. Because
// each child is subtracted from exactly one parent, an operation's
// self times add up to its http-rung duration by construction; a rung
// that happened to run slower than the one above it yields a negative
// self time rather than breaking the sum. Side spans are left out.
func selfCosts(spans []span) map[int]map[string]cost {
	self := make([]cost, len(spans))
	onPath := make([]bool, len(spans))
	for i := range spans {
		s := &spans[i]
		self[i] = cost{s.dur(), s.Allocs, s.Bytes}
		onPath[i] = s.Parent == noParent || (s.Parent >= 0 && onPath[s.Parent])
	}
	for i := range spans {
		s := &spans[i]
		if !onPath[i] || s.Parent < 0 {
			continue
		}
		p := &self[s.Parent]
		p.ns -= s.dur()
		// The http rung has no allocation count to subtract from.
		if spans[s.Parent].Parent != noParent {
			p.allocs -= s.Allocs
			p.bytes -= s.Bytes
		}
	}
	out := map[int]map[string]cost{}
	for i := range spans {
		if !onPath[i] {
			continue
		}
		s := &spans[i]
		if out[s.OpID] == nil {
			out[s.OpID] = map[string]cost{}
		}
		c := out[s.OpID][s.Name]
		c.ns += self[i].ns
		c.allocs += self[i].allocs
		c.bytes += self[i].bytes
		out[s.OpID][s.Name] = c
	}
	return out
}
