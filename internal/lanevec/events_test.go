package lanevec_test

// Event-settling parity at the lanevec level: every lane of the
// bit-parallel engine must land on exactly the state the scalar
// reference machine (sim.Machine) reaches with that lane's single
// fault — per signal, at reset and after every cycle — whether the
// engine settles with every gate seeded (Settle) or with the queue
// seeded only from the signals that changed (the fault simulator's
// per-cycle path).

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/lanevec"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/sim"
)

// eventCycle drives one synchronous cycle on an event-initialised
// engine the way the good machine does: mark the rails, raise, re-seed
// from the accumulated activity, lower.
func eventCycle[V lanevec.Vec[V]](e *lanevec.Engine[V], rails []V) {
	all := e.All()
	e.ClearActivity()
	for i := 0; i < e.Circuit().NumInputs(); i++ {
		w := rails[i].And(all)
		e.MarkSignal(netlist.SigID(i), w, all.AndNot(w))
	}
	e.SeedFromActivity()
	e.RunRaise()
	e.SeedFromActivity()
	e.RunLower()
}

// settleCycle drives the rails and runs a full Settle.
func settleCycle[V lanevec.Vec[V]](e *lanevec.Engine[V], rails []V) {
	all := e.All()
	for i := 0; i < e.Circuit().NumInputs(); i++ {
		w := rails[i].And(all)
		e.SetSignal(netlist.SigID(i), w, all.AndNot(w))
	}
	e.Settle()
}

// eventReset loads the initial state and settles with every admitted
// gate seeded in both phases.
func eventReset[V lanevec.Vec[V]](e *lanevec.Engine[V]) {
	e.LoadInit()
	e.EnqueueMaskGates()
	e.RunRaise()
	e.EnqueueMaskGates()
	e.RunLower()
}

func TestEventSettleMatchesScalar(t *testing.T) {
	const lanes, cycles, seeds = 8, 6, 30
	tried := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			continue
		}
		tried++
		var zero lanevec.V1
		all := zero.FirstN(lanes)

		full := lanevec.NewEngine[lanevec.V1](c)
		full.SetAll(all)
		event := lanevec.NewEngine[lanevec.V1](c)
		event.SetAll(all)
		event.InitEvents(c.Topology())

		// One fault per lane, on distinct lanes, injected into both
		// engines so every override kernel is exercised: an output
		// stuck-at, an input stuck-at and both directional
		// (transition-fault) kinds, the latter possibly on a gate that
		// is not self-dependent in the good circuit — the event queue
		// must reach the scalar fixpoint without a self reader edge.
		// The remaining lanes run the good machine.
		perm := rng.Perm(lanes)
		laneFault := make([]*faults.Fault, lanes)
		inject := func(l int, f faults.Fault) {
			laneFault[l] = &f
			m := zero.WithBit(l)
			for _, e := range []*lanevec.Engine[lanevec.V1]{full, event} {
				switch f.Type {
				case faults.OutputSA:
					e.OrOutOverride(f.Gate, zero, m)
				case faults.InputSA:
					e.AddPinOverride(f.Gate, f.Pin, m, f.Value == logic.One)
				case faults.SlowRise:
					e.OrDirOverride(f.Gate, m, zero)
				case faults.SlowFall:
					e.OrDirOverride(f.Gate, zero, m)
				}
			}
		}
		inject(perm[0], faults.Fault{Type: faults.OutputSA, Gate: rng.Intn(c.NumGates()), Value: logic.Zero})
		if gj := rng.Intn(c.NumGates()); len(c.Gates[gj].Fanin) > 0 {
			pin := rng.Intn(len(c.Gates[gj].Fanin))
			inject(perm[1], faults.Fault{Type: faults.InputSA, Gate: gj, Pin: pin, Value: logic.One})
		}
		inject(perm[2], faults.Fault{Type: faults.SlowRise, Gate: rng.Intn(c.NumGates())})
		inject(perm[3], faults.Fault{Type: faults.SlowFall, Gate: rng.Intn(c.NumGates())})

		scalar := make([]logic.Vec, lanes)
		for l := range scalar {
			scalar[l] = sim.Machine{C: c, Fault: laneFault[l]}.InitState()
		}
		full.Reset()
		eventReset(event)
		compareScalar(t, seed, -1, "Settle", full, scalar)
		compareScalar(t, seed, -1, "event", event, scalar)

		m := c.NumInputs()
		for cyc := 0; cyc < cycles; cyc++ {
			rails := make([]lanevec.V1, m)
			for l := 0; l < lanes; l++ {
				pat := rng.Uint64()
				for i := 0; i < m; i++ {
					if pat>>uint(i)&1 == 1 {
						rails[i] = rails[i].WithBit(l)
					}
				}
				scalar[l] = sim.Machine{C: c, Fault: laneFault[l]}.Step(scalar[l], pat)
			}
			settleCycle(full, rails)
			eventCycle(event, rails)
			compareScalar(t, seed, cyc, "Settle", full, scalar)
			compareScalar(t, seed, cyc, "event", event, scalar)
		}
		if event.GateEvals() == 0 {
			t.Fatalf("seed %d: event engine reported no gate evaluations", seed)
		}
	}
	if tried == 0 {
		t.Fatal("no random circuit generated; event settle parity exercised nothing")
	}
	t.Logf("event settling matched the scalar machine on %d random circuits", tried)
}

func compareScalar[V lanevec.Vec[V]](t *testing.T, seed int64, cyc int, name string, e *lanevec.Engine[V], want []logic.Vec) {
	t.Helper()
	for l, w := range want {
		if got := e.LaneState(l); !got.Equal(w) {
			t.Fatalf("seed %d cycle %d lane %d: %s engine %s, scalar %s", seed, cyc, l, name, got, w)
		}
	}
}

// TestEventSettleRespectsGateMask: with the mask narrowed to one
// gate's fanout cone, the masked-out signals must stay exactly where
// the caller put them while the admitted cone still converges.
func TestEventSettleRespectsGateMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ckt, ok := randckt.New(rng, randckt.Config{MinGates: 8, MaxGates: 12})
	if !ok {
		t.Skip("no circuit for seed")
	}
	topo := ckt.Topology()
	var zero lanevec.V1
	all := zero.FirstN(4)
	e := lanevec.NewEngine[lanevec.V1](ckt)
	e.SetAll(all)
	e.InitEvents(topo)
	e.LoadInit()
	// Admit only the cone of the last gate's output.
	out := ckt.GateOutput(ckt.NumGates() - 1)
	cone := topo.ConeOf(out)
	e.SetGateMask(topo.GateMaskW(cone, nil))
	e.EnqueueMaskGates()
	e.RunRaise()
	e.EnqueueMaskGates()
	e.RunLower()
	init := ckt.InitState()
	for s := 0; s < ckt.NumSignals(); s++ {
		if cone[s>>6]>>uint(s&63)&1 == 1 {
			continue
		}
		want := logic.FromBool(init>>uint(s)&1 == 1)
		for l := 0; l < 4; l++ {
			if got := e.LaneState(l)[s]; got != want {
				t.Fatalf("masked-out signal %d moved: %v (want %v)", s, got, want)
			}
		}
	}
}
