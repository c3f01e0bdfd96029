package sim

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/lanevec"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Lanes is the lane width of the fault-parallel simulator: up to 64
// faulty circuits are simulated simultaneously (Seshu-style parallel
// simulation, §5.4), each in ternary logic.
const Lanes = lanevec.Lanes1

// Parallel simulates up to 64 faulty copies of one circuit in ternary
// logic simultaneously: lane l carries fault l of the injected fault
// list, driven by one shared pattern per cycle.  Stuck-at faults ride
// per-lane pin/output override masks; transition (gross gate-delay)
// faults ride per-lane directional masks, so one batch may mix both
// models freely.
//
// The settling core is lanevec.Engine — the same generated gate
// evaluators and event kernels the pattern-parallel fsim engine
// instantiates; only the fault injection differs (per-lane override
// masks here, an all-lane mask there).  Each Reset and Apply is a
// full-circuit event settle (Engine.Settle).
type Parallel struct {
	eng *lanevec.Engine[lanevec.V1]
	fl  []faults.Fault

	g1, g0 []lanevec.V1 // scratch: good-response vectors for DetectedVs
}

// NewParallel builds a parallel simulator for the given fault list
// (at most Lanes entries).
func NewParallel(c *netlist.Circuit, fl []faults.Fault) *Parallel {
	if len(fl) > Lanes {
		panic(fmt.Sprintf("sim: %d faults exceed %d lanes", len(fl), Lanes))
	}
	p := &Parallel{
		eng: lanevec.NewEngine[lanevec.V1](c),
		fl:  append([]faults.Fault(nil), fl...),
		g1:  make([]lanevec.V1, len(c.Outputs)),
		g0:  make([]lanevec.V1, len(c.Outputs)),
	}
	var zero lanevec.V1
	p.eng.SetAll(zero.FirstN(len(fl)))
	for l, f := range fl {
		mask := zero.WithBit(l)
		switch f.Type {
		case faults.OutputSA:
			if f.Value == logic.One {
				p.eng.OrOutOverride(f.Gate, mask, zero)
			} else {
				p.eng.OrOutOverride(f.Gate, zero, mask)
			}
		case faults.InputSA:
			p.eng.AddPinOverride(f.Gate, f.Pin, mask, f.Value == logic.One)
		case faults.SlowRise:
			p.eng.OrDirOverride(f.Gate, mask, zero)
		case faults.SlowFall:
			p.eng.OrDirOverride(f.Gate, zero, mask)
		default:
			panic(fmt.Sprintf("sim: lane %d: fault type %d is not a concrete fault", l, f.Type))
		}
	}
	p.Reset()
	return p
}

// NumLanes returns the number of active fault lanes.
func (p *Parallel) NumLanes() int { return len(p.fl) }

// Faults returns the injected fault list (lane order).
func (p *Parallel) Faults() []faults.Fault { return p.fl }

// Reset loads the circuit's initial state into every lane and settles
// (a fault can destabilise the reset state).
func (p *Parallel) Reset() { p.eng.Reset() }

// Apply drives the primary-input rails to pattern in every lane and
// settles: one synchronous test cycle for all faulty machines at once.
func (p *Parallel) Apply(pattern uint64) { p.eng.ApplyUniform(pattern) }

// DetectedVs returns the lanes whose primary outputs are definitely
// different from the good-circuit response goodOut (output j at bit j).
// A lane is reported only when some output has a definite value opposite
// to the good value — detection guaranteed under every delay assignment.
func (p *Parallel) DetectedVs(goodOut uint64) uint64 {
	all := p.eng.All()
	var zero lanevec.V1
	for j := range p.g1 {
		if goodOut>>uint(j)&1 == 1 {
			p.g1[j], p.g0[j] = all, zero
		} else {
			p.g1[j], p.g0[j] = zero, all
		}
	}
	return p.eng.DetectVs(p.g1, p.g0)[0]
}

// LaneState extracts the ternary state of one lane (for tests/debugging).
func (p *Parallel) LaneState(lane int) logic.Vec { return p.eng.LaneState(lane) }
