package tester

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// refEvent is a pending inertial output change of simulateRef.
type refEvent struct {
	time float64
	val  bool
}

// simulateRef is the original map-based timed simulator, kept as the
// oracle the dense simulator must reproduce bit for bit: pending events
// live in a map keyed by gate, and every commit scans the whole map for
// the earliest event, breaking time ties towards the lowest gate.
func simulateRef(c *netlist.Circuit, prog Program, delays []float64, cycle float64) Result {
	state := c.InitState()
	pending := make(map[int]refEvent, c.NumGates())
	schedule := func(gi int, now float64) {
		want := c.EvalBinary(gi, state)
		cur := state>>uint(c.Gates[gi].Out)&1 == 1
		ev, has := pending[gi]
		switch {
		case want == cur:
			if has {
				delete(pending, gi)
			}
		case !has:
			pending[gi] = refEvent{time: now + delays[gi], val: want}
		case ev.val != want:
			pending[gi] = refEvent{time: now + delays[gi], val: want}
		}
	}
	run := func(until float64) {
		for {
			best := -1
			for gi, ev := range pending {
				if ev.time >= until {
					continue
				}
				if best < 0 || ev.time < pending[best].time ||
					(ev.time == pending[best].time && gi < best) {
					best = gi
				}
			}
			if best < 0 {
				return
			}
			ev := pending[best]
			delete(pending, best)
			out := c.Gates[best].Out
			if ev.val {
				state |= 1 << uint(out)
			} else {
				state &^= 1 << uint(out)
			}
			schedule(best, ev.time)
			for _, fg := range c.Fanouts(out) {
				schedule(fg, ev.time)
			}
		}
	}

	now := 0.0
	for gi := 0; gi < c.NumGates(); gi++ {
		schedule(gi, now)
	}
	run(now + cycle)
	now += cycle
	res := Result{AtReset: c.OutputBits(state), Quiescent: true, Mismatch: -1}
	if len(pending) > 0 {
		res.Quiescent = false
	}
	if res.AtReset != prog.ResetExpected {
		res.Mismatch = -2
	}
	for cyc, p := range prog.Patterns {
		state = c.WithInputBits(state, p)
		for i := 0; i < c.NumInputs(); i++ {
			schedule(i, now)
		}
		run(now + cycle)
		now += cycle
		out := c.OutputBits(state)
		res.Outputs = append(res.Outputs, out)
		if len(pending) > 0 {
			res.Quiescent = false
		}
		if res.Mismatch == -1 && cyc < len(prog.Expected) && out != prog.Expected[cyc] {
			res.Mismatch = cyc
		}
	}
	return res
}

// monteCarloRef counts one simulateRef run per trial, drawing delays
// exactly as MonteCarlo documents.
func monteCarloRef(c *netlist.Circuit, prog Program, trials int, seed int64, cycle float64) (matched, mismatched int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < trials; i++ {
		if simulateRef(c, prog, RandomDelays(c, rng, 0.5, 1.5), cycle).Matches() {
			matched++
		} else {
			mismatched++
		}
	}
	return matched, mismatched
}

// diffCircuits returns every speed-independent and hazard-free
// benchmark plus every input-SA faulty copy of each.
func diffCircuits() []*netlist.Circuit {
	var out []*netlist.Circuit
	for _, b := range append(circuits.SpeedIndependent(), circuits.HazardFree()...) {
		out = append(out, b.Circuit)
		for _, f := range faults.InputUniverse(b.Circuit) {
			out = append(out, faults.Apply(b.Circuit, f))
		}
	}
	return out
}

// randomProgram draws 0–7 input vectors.  Half the programs take their
// expectations from the reference run under delays, a third of those
// with one deliberately corrupted observation; the rest expect random
// responses, sometimes fewer than there are vectors.
func randomProgram(c *netlist.Circuit, rng *rand.Rand, delays []float64, cycle float64) Program {
	inMask := uint64(1)<<uint(c.NumInputs()) - 1
	outMask := uint64(1)<<uint(len(c.Outputs)) - 1
	prog := Program{Patterns: make([]uint64, rng.Intn(8))}
	for i := range prog.Patterns {
		prog.Patterns[i] = rng.Uint64() & inMask
	}
	if rng.Intn(2) == 0 {
		ref := simulateRef(c, prog, delays, cycle)
		prog.ResetExpected, prog.Expected = ref.AtReset, ref.Outputs
		if rng.Intn(3) == 0 {
			flip := uint64(1) << uint(rng.Intn(len(c.Outputs)))
			if k := rng.Intn(len(prog.Expected) + 1); k == len(prog.Expected) {
				prog.ResetExpected ^= flip
			} else {
				prog.Expected[k] ^= flip
			}
		}
		return prog
	}
	prog.ResetExpected = rng.Uint64() & outMask
	prog.Expected = make([]uint64, rng.Intn(len(prog.Patterns)+1))
	for i := range prog.Expected {
		prog.Expected[i] = rng.Uint64() & outMask
	}
	return prog
}

func describeProgram(c *netlist.Circuit, prog Program, delays []float64, cycle float64) string {
	return fmt.Sprintf("circuit %s, cycle %v, delays %v, program %+v", c.Name, cycle, delays, prog)
}

// The dense simulator must reproduce the map-based reference field for
// field on every benchmark and every input-SA faulty copy, under random
// programs and delays, two programs per cycle length.  Cycle length 1
// leaves events pending at most samples, covering the non-quiescent
// paths; 10 lets most vectors settle.
func TestSimulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	programs, nonQuiescent, mismatched := 0, 0, 0
	for _, c := range diffCircuits() {
		for _, cycle := range []float64{1, 3, 10, 1, 3, 10} {
			delays := RandomDelays(c, rng, 0.5, 1.5)
			if programs%2 == 1 {
				// Delays on a 0.5 grid make simultaneous events common,
				// which exercises the lowest-gate tie-break.
				for i := range delays {
					delays[i] = float64(1+rng.Intn(3)) * 0.5
				}
			}
			prog := randomProgram(c, rng, delays, cycle)
			want := simulateRef(c, prog, delays, cycle)
			got := Simulate(c, prog, delays, cycle)
			programs++
			if !want.Quiescent {
				nonQuiescent++
			}
			if !want.Matches() {
				mismatched++
			}
			if !slices.Equal(got.Outputs, want.Outputs) || got.AtReset != want.AtReset ||
				got.Quiescent != want.Quiescent || got.Mismatch != want.Mismatch {
				t.Fatalf("dense simulator diverged from the reference:\ngot  %+v\nwant %+v\n%s",
					got, want, describeProgram(c, prog, delays, cycle))
			}
		}
	}
	t.Logf("%d programs, %d not quiescent, %d mismatching", programs, nonQuiescent, mismatched)
	if nonQuiescent == 0 || nonQuiescent == programs || mismatched == 0 || mismatched == programs {
		t.Fatalf("the matrix must exercise both outcomes of Quiescent and Matches: %d programs, %d not quiescent, %d mismatching",
			programs, nonQuiescent, mismatched)
	}
}

// MonteCarlo's early stop at the first mismatch and its reused delay
// buffer must not change its counts against one reference run per trial.
func TestMonteCarloMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for ci, c := range diffCircuits() {
		cycle := []float64{1, 3, 10}[ci%3]
		prog := randomProgram(c, rng, RandomDelays(c, rng, 0.5, 1.5), cycle)
		seed := rng.Int63()
		gm, gx := MonteCarlo(c, prog, 6, seed, cycle)
		wm, wx := monteCarloRef(c, prog, 6, seed, cycle)
		if gm != wm || gx != wx {
			t.Fatalf("%s: MonteCarlo counted %d matched / %d mismatched, reference %d / %d\n%s",
				c.Name, gm, gx, wm, wx, describeProgram(c, prog, nil, cycle))
		}
	}
}

// A circuit wider than one packed word cannot be simulated: shifts of
// 64 or more read every signal past bit 63 as 0.  Both entry points
// must refuse it before simulating anything.
func TestRejectsWideCircuit(t *testing.T) {
	src, err := os.ReadFile("../../examples/iscas/s349.ckt")
	if err != nil {
		t.Fatal(err)
	}
	c, err := netlist.ParseString(string(src), "s349.ckt")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSignals() <= netlist.WordBits {
		t.Fatalf("s349 has %d signals; the test needs more than %d", c.NumSignals(), netlist.WordBits)
	}
	for name, call := range map[string]func(){
		"Simulate":   func() { Simulate(c, Program{}, make([]float64, c.NumGates()), 10) },
		"MonteCarlo": func() { MonteCarlo(c, Program{}, 1, 1, 10) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "s349") || !strings.Contains(msg, fmt.Sprint(c.NumSignals())) {
					t.Errorf("%s: want a panic naming s349 and its %d signals, got %q", name, c.NumSignals(), msg)
				}
			}()
			call()
		}()
	}
}
