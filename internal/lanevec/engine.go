package lanevec

//go:generate go run gen.go

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// PinOverride forces one input pin of a gate to a constant in the lanes
// named by Mask: the pin perceives One (or zero) regardless of the
// driving signal — the input stuck-at model.
type PinOverride[V Vec[V]] struct {
	Pin  int
	Mask V
	One  bool // stuck value
}

// outOverride forces a gate's output to a constant per lane.
type outOverride[V Vec[V]] struct {
	m1 V // lanes whose output is stuck at 1
	m0 V // lanes whose output is stuck at 0
}

// dirOverride makes a gate's output directional per lane: in fall
// lanes the output may only fall (the slow-to-rise gross gate-delay
// model, out' = f(ins) ∧ out), in rise lanes it may only rise
// (slow-to-fall, out' = f(ins) ∨ out).  The kernels read the gate's
// own previous output from the possibility vectors, exactly like the
// C-gate self input, so the directional gate remembers which way it
// has already moved: once a slow-to-rise output falls it can never
// rise again, as the materialised f∧self gate of faults.Apply behaves.
type dirOverride[V Vec[V]] struct {
	fall V // lanes whose output may only fall (slow to rise)
	rise V // lanes whose output may only rise (slow to fall)
}

// Engine is the generic bit-parallel ternary machine: one circuit
// simulated across the lanes of V, each signal held as two possibility
// vectors (p1 bit l set: "in lane l the signal may be 1"; p0: "may be
// 0"; both: Φ).  Every operation is lanewise, so the lane columns
// evolve completely independently and each converges to exactly the
// scalar SettleTernary fixpoint — the differential tests against
// sim.Machine rely on this.
//
// Faults are injected as overrides: per-lane pin masks (fault-per-lane)
// or all-lane masks (one uniform fault, pattern-per-lane).  An output
// stuck-at is an output override; an input stuck-at is a pin override;
// a gross gate-delay (transition) fault is a directional override —
// the output may only fall (slow-to-rise) or only rise (slow-to-fall)
// in its lanes, judged against the gate's own previous output.
type Engine[V Vec[V]] struct {
	c   *netlist.Circuit
	all V // mask of lanes in use

	inOv  [][]PinOverride[V] // per gate: input-pin stuck-at overrides
	outOv []outOverride[V]   // per gate: output stuck-at overrides
	dirOv []dirOverride[V]   // per gate: directional (transition-fault) overrides
	hasOv []bool             // per gate: any override set
	dirty []int              // gates with any override set

	p1, p0 []V // current possibility vectors, indexed by signal

	// Event-driven settling state (nil until InitEvents); chg holds the
	// per-lane activity mask accumulated per signal since ClearActivity.
	ev  *eventState
	chg []V

	initW []uint64 // cached multi-word initial state (lazily built)

	evals int64 // cumulative gate evaluations
}

// NewEngine builds an engine for the circuit with no lanes active and
// no overrides; call SetAll (and the override setters) before Reset.
func NewEngine[V Vec[V]](c *netlist.Circuit) *Engine[V] {
	n := c.NumSignals()
	return &Engine[V]{
		c:     c,
		inOv:  make([][]PinOverride[V], c.NumGates()),
		outOv: make([]outOverride[V], c.NumGates()),
		dirOv: make([]dirOverride[V], c.NumGates()),
		hasOv: make([]bool, c.NumGates()),
		p1:    make([]V, n),
		p0:    make([]V, n),
	}
}

// Circuit returns the simulated circuit.
func (e *Engine[V]) Circuit() *netlist.Circuit { return e.c }

// All returns the active-lane mask.
func (e *Engine[V]) All() V { return e.all }

// SetAll selects the active lanes (typically FirstN of the lane count).
func (e *Engine[V]) SetAll(all V) { e.all = all }

// AddPinOverride makes input pin `pin` of gate gi perceive the constant
// `one` in the lanes of mask.
func (e *Engine[V]) AddPinOverride(gi, pin int, mask V, one bool) {
	e.markDirty(gi)
	e.inOv[gi] = append(e.inOv[gi], PinOverride[V]{Pin: pin, Mask: mask, One: one})
}

// OrOutOverride sticks gate gi's output at 1 in the lanes of m1 and at
// 0 in the lanes of m0, accumulating over previous calls.
func (e *Engine[V]) OrOutOverride(gi int, m1, m0 V) {
	e.markDirty(gi)
	e.outOv[gi].m1 = e.outOv[gi].m1.Or(m1)
	e.outOv[gi].m0 = e.outOv[gi].m0.Or(m0)
}

// OrDirOverride makes gate gi's output directional per lane,
// accumulating over previous calls: in the lanes of fall the output may
// only fall (slow-to-rise: out' = f(ins) ∧ out), in the lanes of rise
// it may only rise (slow-to-fall: out' = f(ins) ∨ out).  The kernels
// read the gate's own previous output like a C-gate self input; the
// exactness of the masked form against the materialised f∧self /
// f∨self gate relies on every self-dependent gate kind being monotone
// in its self input (true for C, the only such kind), which the
// transition-fault differential tests in internal/fsim pin down.
func (e *Engine[V]) OrDirOverride(gi int, fall, rise V) {
	e.markDirty(gi)
	e.dirOv[gi].fall = e.dirOv[gi].fall.Or(fall)
	e.dirOv[gi].rise = e.dirOv[gi].rise.Or(rise)
}

func (e *Engine[V]) markDirty(gi int) {
	if e.hasOv[gi] {
		return
	}
	e.hasOv[gi] = true
	e.dirty = append(e.dirty, gi)
}

// ClearOverrides removes every override in O(overridden gates), so a
// reused engine can switch faults cheaply.
func (e *Engine[V]) ClearOverrides() {
	var zeroOut outOverride[V]
	var zeroDir dirOverride[V]
	for _, gi := range e.dirty {
		e.inOv[gi] = e.inOv[gi][:0]
		e.outOv[gi] = zeroOut
		e.dirOv[gi] = zeroDir
		e.hasOv[gi] = false
	}
	e.dirty = e.dirty[:0]
}

// GateEvals returns the cumulative number of gate evaluations this
// engine has performed — the work metric cone limiting and activity
// seeding exist to shrink.
func (e *Engine[V]) GateEvals() int64 { return e.evals }

// LoadInit loads the circuit's declared initial state into every
// active lane without settling — event-driven callers seed the queue
// and run the phases themselves.
func (e *Engine[V]) LoadInit() {
	if e.initW == nil {
		e.initW = e.c.InitWords()
	}
	var zero V
	for s := 0; s < e.c.NumSignals(); s++ {
		if e.initW[s>>6]>>uint(s&63)&1 == 1 {
			e.p1[s], e.p0[s] = e.all, zero
		} else {
			e.p1[s], e.p0[s] = zero, e.all
		}
	}
}

// Reset loads the circuit's declared initial state into every active
// lane and settles (a fault can destabilise the reset state).
func (e *Engine[V]) Reset() {
	e.LoadInit()
	e.Settle()
}

// ApplyUniform drives the primary-input rails to the same packed
// pattern (input i at bit i) in every lane and settles.
func (e *Engine[V]) ApplyUniform(pattern uint64) {
	var zero V
	for i := 0; i < e.c.NumInputs(); i++ {
		if pattern>>uint(i)&1 == 1 {
			e.p1[i], e.p0[i] = e.all, zero
		} else {
			e.p1[i], e.p0[i] = zero, e.all
		}
	}
	e.Settle()
}

// Definite returns the lanes where signal sig is definitely 1 and
// definitely 0 (Φ lanes appear in neither).
func (e *Engine[V]) Definite(sig netlist.SigID) (d1, d0 V) {
	return e.p1[sig].AndNot(e.p0[sig]), e.p0[sig].AndNot(e.p1[sig])
}

// LaneState extracts the ternary state of one lane (tests/debugging).
func (e *Engine[V]) LaneState(lane int) logic.Vec {
	st := make(logic.Vec, e.c.NumSignals())
	for s := range st {
		one := e.p1[s].Has(lane)
		zero := e.p0[s].Has(lane)
		switch {
		case one && zero:
			st[s] = logic.X
		case one:
			st[s] = logic.One
		default:
			st[s] = logic.Zero
		}
	}
	return st
}

// Settle runs algorithm A (information-raising) then algorithm B
// (lowering) over the whole circuit, all lanes at once.  This is
// Eichelberger's ternary settling, lanewise: per lane the A fixpoint
// raises every potentially-unstable signal to Φ and B restores the
// signals whose final value is certain under every delay assignment.
//
// Both phases run on the event kernels with every gate seeded, and
// every gate is admitted for the call whatever mask SetGateMask left
// in place.  Seeding everything is what makes this a full settle from
// an arbitrary state: no gate starts out assumed to sit at its phase's
// fixpoint (see events.go).
func (e *Engine[V]) Settle() {
	e.InitEvents(e.c.Topology())
	mask := e.ev.gateMask
	e.ev.gateMask = e.ev.allMask
	e.EnqueueMaskGates()
	e.RunRaise()
	e.EnqueueMaskGates()
	e.RunLower()
	e.ev.gateMask = mask
}

// DetectVs returns the lanes whose primary outputs are definitely
// different from the good response encoded as per-output definite
// vectors (good1[j] bit l set: in lane l output j is definitely 1 in
// the good machine).  A lane is reported only when some output has a
// definite value opposite to a definite good value — detection
// guaranteed under every delay assignment.
func (e *Engine[V]) DetectVs(good1, good0 []V) V {
	var det V
	for j, sig := range e.c.Outputs {
		f1 := e.p1[sig].AndNot(e.p0[sig])
		f0 := e.p0[sig].AndNot(e.p1[sig])
		det = det.Or(f1.And(good0[j])).Or(f0.And(good1[j]))
	}
	return det.And(e.all)
}

// DetectVsOn is DetectVs restricted to the outputs whose indices are
// listed in outs.  The lazily-seeded cone-limited fault path maintains
// only the fault's support signals, so only the outputs inside the
// cone hold meaningful faulty values — and by the cone theorem every
// other output equals the good response anyway, so restricting the
// comparison loses nothing.
func (e *Engine[V]) DetectVsOn(outs []int, good1, good0 []V) V {
	var det V
	for _, j := range outs {
		sig := e.c.Outputs[j]
		f1 := e.p1[sig].AndNot(e.p0[sig])
		f0 := e.p0[sig].AndNot(e.p1[sig])
		det = det.Or(f1.And(good0[j])).Or(f0.And(good1[j]))
	}
	return det.And(e.all)
}
