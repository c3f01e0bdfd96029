// Package tester models the real-life synchronous tester of the paper's
// motivation: a machine that applies an input vector every test cycle
// and samples the primary outputs just before the next vector, with no
// knowledge of the circuit's internal timing.
//
// It also provides the piece the paper could not ship: a discrete-event
// timed simulator of the fabricated chip, with an arbitrary bounded
// inertial delay per gate.  Because the ATPG derives its vectors under
// the unbounded delay model, every generated test must behave
// identically for every delay assignment — the Monte-Carlo harness here
// validates exactly that claim.
package tester

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/netlist"
)

// Program is one synchronous test program: vectors applied from reset
// and the responses the good circuit must produce.
type Program struct {
	Patterns []uint64 // input rail vectors, one per test cycle
	Expected []uint64 // expected primary outputs sampled at each cycle end
	// ResetExpected is the expected output vector before the first
	// pattern (the tester may compare right after reset).
	ResetExpected uint64
}

// Result is the outcome of one timed simulation of a program.
type Result struct {
	Outputs   []uint64 // sampled outputs per cycle
	AtReset   uint64   // outputs sampled after reset settling
	Quiescent bool     // no pending events at any sampling instant
	Mismatch  int      // first cycle whose outputs differ from Expected (-1 none; -2 reset)
}

// Matches reports whether the run reproduced the expected responses.
func (r Result) Matches() bool { return r.Mismatch == -1 }

// timedSim is the state of one timed run.  Pending inertial events are
// kept dense per gate: bit gi of pend marks a pending flip of gate gi
// to bit gi of val, committing at at[gi].  The packed uint64 state caps
// a circuit at netlist.WordBits signals, and so at as many gates, which
// lets one word hold each mask.  MonteCarlo reuses one timedSim across
// its trials.
type timedSim struct {
	c      *netlist.Circuit
	delays []float64 // per-gate inertial delay
	at     []float64 // commit time of gate gi's pending event
	state  uint64    // packed signal values
	pend   uint64    // gates with a pending event
	val    uint64    // target value of each pending event
}

func newTimedSim(c *netlist.Circuit, delays []float64) *timedSim {
	if c.NumSignals() > netlist.WordBits {
		panic(fmt.Sprintf("tester: circuit %s has %d signals; the timed simulator supports at most %d — validate direct-flow results with satpg.ValidateDirect",
			c.Name, c.NumSignals(), netlist.WordBits))
	}
	return &timedSim{c: c, delays: delays, at: make([]float64, c.NumGates())}
}

// schedule reconciles gate gi's pending event with its excitation in
// the current state at time now.
func (s *timedSim) schedule(gi int, now float64) {
	want := s.c.EvalBinary(gi, s.state)
	cur := s.state>>uint(s.c.Gates[gi].Out)&1 == 1
	bit := uint64(1) << uint(gi)
	switch {
	case want == cur:
		s.pend &^= bit // pulse filtered
	case s.pend&bit == 0 || (s.val&bit != 0) != want:
		s.at[gi] = now + s.delays[gi]
		s.pend |= bit
		if want {
			s.val |= bit
		} else {
			s.val &^= bit
		}
	}
}

// run advances the simulation to absolute time until, committing
// pending events in time order.  Walking the pending gates in ascending
// order with a strict < breaks ties towards the lowest gate index.
func (s *timedSim) run(until float64) {
	for {
		best, t := -1, until
		for m := s.pend; m != 0; m &= m - 1 {
			gi := bits.TrailingZeros64(m)
			if s.at[gi] < t {
				best, t = gi, s.at[gi]
			}
		}
		if best < 0 {
			return
		}
		bit := uint64(1) << uint(best)
		s.pend &^= bit
		// Commit the flip, then reconcile the gate and its fanout.
		out := s.c.Gates[best].Out
		if s.val&bit != 0 {
			s.state |= 1 << uint(out)
		} else {
			s.state &^= 1 << uint(out)
		}
		s.schedule(best, t)
		for _, fg := range s.c.Fanouts(out) {
			s.schedule(fg, t)
		}
	}
}

// play runs prog from the declared reset state.  With full unset it
// returns at the first mismatching observation and records no Outputs:
// only Matches() of that Result is meaningful.
func (s *timedSim) play(prog Program, cycle float64, full bool) Result {
	c := s.c
	s.state, s.pend = c.InitState(), 0
	now := 0.0
	// Reset settling: reconcile everything once (a fault may make the
	// declared init unstable) and give it one full cycle.
	for gi := 0; gi < c.NumGates(); gi++ {
		s.schedule(gi, now)
	}
	s.run(now + cycle)
	now += cycle
	res := Result{AtReset: c.OutputBits(s.state), Quiescent: s.pend == 0, Mismatch: -1}
	if res.AtReset != prog.ResetExpected {
		res.Mismatch = -2
		if !full {
			return res
		}
	}
	for cyc, p := range prog.Patterns {
		// Rails switch at the boundary.
		s.state = c.WithInputBits(s.state, p)
		for i := 0; i < c.NumInputs(); i++ {
			s.schedule(i, now) // input buffers see the new rails
		}
		s.run(now + cycle)
		now += cycle
		out := c.OutputBits(s.state)
		if full {
			res.Outputs = append(res.Outputs, out)
		}
		if s.pend != 0 {
			res.Quiescent = false
		}
		if res.Mismatch == -1 && cyc < len(prog.Expected) && out != prog.Expected[cyc] {
			res.Mismatch = cyc
			if !full {
				return res
			}
		}
	}
	return res
}

// Simulate runs the program on the circuit with the given per-gate
// inertial delays (delays[gi] > 0), a fixed test-cycle length, and the
// circuit's declared initial state.  Semantics: when a gate becomes
// excited at time t it schedules an output flip at t+delay; if the
// excitation disappears (or its target value changes) before the flip
// commits, the pending change is cancelled or rescheduled — an inertial
// delay filters short pulses.  Primary-input rails switch exactly at
// cycle boundaries; outputs are sampled immediately before the next
// boundary.  Simultaneous events commit lowest gate first.  It panics on
// a circuit with more than netlist.WordBits signals.
func Simulate(c *netlist.Circuit, prog Program, delays []float64, cycle float64) Result {
	if len(delays) != c.NumGates() {
		panic(fmt.Sprintf("tester: %d delays for %d gates", len(delays), c.NumGates()))
	}
	return newTimedSim(c, delays).play(prog, cycle, true)
}

// RandomDelays draws per-gate delays uniformly from [min, max).
func RandomDelays(c *netlist.Circuit, rng *rand.Rand, min, max float64) []float64 {
	d := make([]float64, c.NumGates())
	fillDelays(d, rng, min, max)
	return d
}

func fillDelays(d []float64, rng *rand.Rand, min, max float64) {
	for i := range d {
		d[i] = min + rng.Float64()*(max-min)
	}
}

// CycleFor returns a test-cycle length sufficient for any valid vector
// to settle: the worst-case transition count times the slowest gate,
// plus margin.  maxDepth is the CSSG's MaxSettleDepth (|σ|max, §4.1).
func CycleFor(maxDepth int, maxDelay float64) float64 {
	return float64(maxDepth+2) * maxDelay * 1.25
}

// MonteCarlo runs the program under `trials` random delay assignments,
// drawn per trial as RandomDelays(c, rng, 0.5, 1.5) from one rng seeded
// with seed, and reports how many runs matched the expected responses
// and how many mismatched somewhere (for a faulty circuit, a mismatch
// means the tester caught the fault in that trial).  A trial stops at
// its first mismatching observation.  It panics on a circuit with more
// than netlist.WordBits signals.
func MonteCarlo(c *netlist.Circuit, prog Program, trials int, seed int64, cycle float64) (matched, mismatched int) {
	s := newTimedSim(c, make([]float64, c.NumGates()))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < trials; i++ {
		fillDelays(s.delays, rng, 0.5, 1.5)
		if s.play(prog, cycle, false).Matches() {
			matched++
		} else {
			mismatched++
		}
	}
	return matched, mismatched
}

// Format renders the program as tester stimulus text: one line per
// cycle with input and expected output vectors (LSB-first signal order,
// matching the circuit's input and output declarations).
func Format(c *netlist.Circuit, prog Program) string {
	var sb []byte
	sb = append(sb, fmt.Sprintf("# circuit %s: %d cycles\n", c.Name, len(prog.Patterns))...)
	names := make([]string, len(c.Outputs))
	for i, o := range c.Outputs {
		names[i] = c.SignalName(o)
	}
	sb = append(sb, fmt.Sprintf("# inputs: %v outputs: %v\n", c.Inputs, names)...)
	sb = append(sb, fmt.Sprintf("reset -> %0*b\n", len(c.Outputs), prog.ResetExpected)...)
	for i, p := range prog.Patterns {
		sb = append(sb, fmt.Sprintf("%0*b -> %0*b\n", c.NumInputs(), p, len(c.Outputs), prog.Expected[i])...)
	}
	return string(sb)
}
