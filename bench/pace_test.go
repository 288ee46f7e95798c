package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on or told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDue(t *testing.T) {
	begin := time.Unix(1000, 0)
	clk := &fakeClock{now: begin}
	// 100 ops/s: one op every 10 ms. Ops 0-1 take 2 ms; op 2 stalls for
	// 35 ms, so ops 3-5 leave late and pay for it; then the daemon is
	// quick again and the schedule catches up.
	service := []time.Duration{2, 2, 35, 2, 2, 2, 2, 2}
	var got []paced
	openLoop(clk, begin, begin.Add(time.Hour), 100, len(service),
		func(k int) { clk.Sleep(service[k] * time.Millisecond) },
		func(p paced) { got = append(got, p) })
	wantLate := []time.Duration{0, 0, 0, 25, 17, 9, 1, 0}
	wantLatency := []time.Duration{2, 2, 35, 27, 19, 11, 3, 2}
	if len(got) != len(service) {
		t.Fatalf("sent %d ops, want %d", len(got), len(service))
	}
	for k, p := range got {
		if want := begin.Add(time.Duration(k) * 10 * time.Millisecond); !p.due.Equal(want) {
			t.Errorf("op %d due %v, want %v: due times must not drift with lateness", k, p.due.Sub(begin), want.Sub(begin))
		}
		if p.late() != wantLate[k]*time.Millisecond {
			t.Errorf("op %d sent %v late, want %v", k, p.late(), wantLate[k]*time.Millisecond)
		}
		if p.latency() != wantLatency[k]*time.Millisecond {
			t.Errorf("op %d latency %v, want %v (service time plus the wait behind the stall)", k, p.latency(), wantLatency[k]*time.Millisecond)
		}
	}
}

func TestOpenLoopStopsAtWindowEnd(t *testing.T) {
	begin := time.Unix(1000, 0)
	clk := &fakeClock{now: begin}
	sent := 0
	openLoop(clk, begin, begin.Add(95*time.Millisecond), 100, 1000,
		func(int) { sent++; clk.Sleep(time.Millisecond) }, func(paced) {})
	if sent != 10 { // due at 0, 10, ..., 90 ms
		t.Errorf("sent %d ops before a 95 ms cut-off at 100/s, want 10", sent)
	}
}
