package main

import "time"

// clock lets the pacing arithmetic be tested without waiting.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// paced is one op of an open loop: when it was due, when it left, when
// its answer was complete.
type paced struct {
	k               int
	due, sent, done time.Time
}

// latency counts from the instant the op was due, so the wait a stall
// imposes on the ops queued behind it is charged to them.
func (p paced) latency() time.Duration { return p.done.Sub(p.due) }

// late is how far behind schedule the generator sent the op.
func (p paced) late() time.Duration { return p.sent.Sub(p.due) }

// openLoop sends ops 0..n-1 at rate ops/s: op k is due at begin + k/rate
// whether or not the ops before it have been answered. The loop owns one
// connection, so an op cannot leave before its predecessor's answer is
// in; it then leaves at once, late. It stops before the first op due at
// or after until.
func openLoop(clk clock, begin, until time.Time, rate float64, n int, send func(k int), each func(paced)) {
	for k := 0; k < n; k++ {
		p := paced{k: k, due: begin.Add(time.Duration(float64(k) / rate * float64(time.Second)))}
		if !p.due.Before(until) {
			return
		}
		if wait := p.due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		p.sent = clk.Now()
		send(k)
		p.done = clk.Now()
		each(p)
	}
}
