// Package faults defines the stuck-at fault models used by the ATPG
// engine: the single output stuck-at model and the single input stuck-at
// model (which subsumes it), as in §1 and §6 of Roig et al. (DAC'97).
//
// A fault is located at a gate: either its output is stuck at a constant
// (output stuck-at), or one of its input pins perceives a constant
// regardless of the driving signal (input stuck-at).  Input stuck-at
// faults on different fanout branches of the same signal are distinct
// faults, which is what makes the input model strictly stronger.
package faults

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Type distinguishes the fault models.
type Type uint8

// Fault types.  OutputSA and InputSA are the paper's models.  SlowRise
// and SlowFall are the gross gate-delay extension the paper lists as
// future work (§7, "a wider spectrum of fault models (e.g. delay
// faults)"): the affected gate's transition in one direction never
// completes within a test cycle, so its output can only fall (SlowRise)
// or only rise (SlowFall).  Transition is a model selector only: it
// denotes the universe of all SlowRise and SlowFall faults.
const (
	OutputSA   Type = iota // gate output stuck at Value
	InputSA                // gate input pin stuck at Value
	SlowRise               // gate never completes a rising transition
	SlowFall               // gate never completes a falling transition
	Transition             // model selector: SlowRise ∪ SlowFall universe
)

// Fault is a single stuck-at fault site.
type Fault struct {
	Gate  int // gate index in the circuit (includes input buffers)
	Pin   int // fanin pin index for InputSA; -1 for OutputSA
	Type  Type
	Value logic.V // stuck value: Zero or One
}

// Describe renders the fault with circuit signal names, e.g. "y/SA0"
// (output), "c.pin1(A)/SA1" (input pin 1 of gate c, driven by A),
// "y/STR" (slow to rise) or "y/STF" (slow to fall).
func (f Fault) Describe(c *netlist.Circuit) string {
	g := &c.Gates[f.Gate]
	switch f.Type {
	case SlowRise:
		return fmt.Sprintf("%s/STR", g.Name)
	case SlowFall:
		return fmt.Sprintf("%s/STF", g.Name)
	case Transition:
		// The model selector is not a concrete fault; render it
		// readably anyway (error paths describe rejected entries).
		return fmt.Sprintf("%s/TRANSITION", g.Name)
	}
	sa := "SA0"
	if f.Value == logic.One {
		sa = "SA1"
	}
	if f.Type == OutputSA {
		return fmt.Sprintf("%s/%s", g.Name, sa)
	}
	return fmt.Sprintf("%s.pin%d(%s)/%s", g.Name, f.Pin, c.SignalName(g.Fanin[f.Pin]), sa)
}

// Site returns the signal whose stable value excites the fault: the gate
// output for output and transition faults, the driving signal of the pin
// for input faults.  The fault is excited in a state iff the site's
// value differs from the stuck value (§5.1); a slow-to-rise gate behaves
// like its output stuck low once it should have risen, and dually.
func (f Fault) Site(c *netlist.Circuit) netlist.SigID {
	g := &c.Gates[f.Gate]
	if f.Type == InputSA {
		return g.Fanin[f.Pin]
	}
	return g.Out
}

// ExcitedIn reports whether the fault is excited in the packed state.
func (f Fault) ExcitedIn(c *netlist.Circuit, state uint64) bool {
	bit := state>>uint(f.Site(c))&1 == 1
	switch f.Type {
	case SlowRise:
		return bit // the good circuit holds 1 that the faulty one missed
	case SlowFall:
		return !bit
	}
	return logic.FromBool(bit) != f.Value
}

// Apply materialises the fault into a deep copy of the circuit by
// rewriting the affected gate's truth table: an output fault becomes the
// constant function; an input fault makes the function ignore the pin
// and read the stuck value instead.  The copy is meant for simulation —
// do not serialise it (the printed kind keyword would not reflect the
// modified table) and do not Validate it (the reset state may be
// unstable under the fault, which is precisely what the ATPG exploits).
func Apply(c *netlist.Circuit, f Fault) *netlist.Circuit {
	fc := c.Clone()
	g := &fc.Gates[f.Gate]
	switch f.Type {
	case SlowRise, SlowFall:
		// A transition fault makes the output directional:
		// slow-to-rise ⇒ out' = f(ins) ∧ out, slow-to-fall ⇒
		// out' = f(ins) ∨ out.  The materialised gate must read its own
		// output, so a combinational gate becomes a self-dependent one
		// (kind C with a custom table); C gates keep their shape.
		nf := len(g.Fanin)
		oldTbl := append([]logic.V(nil), g.Tbl...)
		wasSelf := g.Kind.SelfDependent()
		g.Kind = netlist.C
		size := 1 << uint(nf+1)
		tbl := make([]logic.V, size)
		for idx := 0; idx < size; idx++ {
			var base logic.V
			if wasSelf {
				base = oldTbl[idx]
			} else {
				base = oldTbl[idx&(1<<uint(nf)-1)]
			}
			self := logic.FromBool(idx>>uint(nf)&1 == 1)
			if f.Type == SlowRise {
				tbl[idx] = logic.And(base, self)
			} else {
				tbl[idx] = logic.Or(base, self)
			}
		}
		if err := fc.SetGateTable(f.Gate, tbl); err != nil {
			panic("faults: " + err.Error())
		}
		return fc
	}
	size := 1 << uint(g.NLocal())
	tbl := make([]logic.V, size)
	switch f.Type {
	case OutputSA:
		for i := range tbl {
			tbl[i] = f.Value
		}
	case InputSA:
		for idx := 0; idx < size; idx++ {
			forced := idx &^ (1 << uint(f.Pin))
			if f.Value == logic.One {
				forced |= 1 << uint(f.Pin)
			}
			tbl[idx] = g.Tbl[forced]
		}
	}
	if err := fc.SetGateTable(f.Gate, tbl); err != nil {
		panic("faults: " + err.Error()) // sizes match by construction
	}
	return fc
}

// OutputUniverse returns all single output stuck-at faults: two per gate
// (including the implicit input buffers, whose output faults model stuck
// primary-input wires).
func OutputUniverse(c *netlist.Circuit) []Fault {
	out := make([]Fault, 0, 2*c.NumGates())
	for gi := 0; gi < c.NumGates(); gi++ {
		out = append(out,
			Fault{Type: OutputSA, Gate: gi, Pin: -1, Value: logic.Zero},
			Fault{Type: OutputSA, Gate: gi, Pin: -1, Value: logic.One},
		)
	}
	return out
}

// InputUniverse returns all single input stuck-at faults: two per gate
// input pin.  Buffer pins model stuck primary inputs.  Per the paper,
// this model includes all output stuck-at faults: an output fault on
// signal s is equivalent to the simultaneous input fault on all of s's
// fanout pins, and for single-fanout signals to the single pin fault.
func InputUniverse(c *netlist.Circuit) []Fault {
	var out []Fault
	for gi := 0; gi < c.NumGates(); gi++ {
		for pin := range c.Gates[gi].Fanin {
			out = append(out,
				Fault{Type: InputSA, Gate: gi, Pin: pin, Value: logic.Zero},
				Fault{Type: InputSA, Gate: gi, Pin: pin, Value: logic.One},
			)
		}
	}
	return out
}

// TransitionUniverse returns all gross gate-delay faults: one
// slow-to-rise and one slow-to-fall fault per gate.
func TransitionUniverse(c *netlist.Circuit) []Fault {
	out := make([]Fault, 0, 2*c.NumGates())
	for gi := 0; gi < c.NumGates(); gi++ {
		out = append(out,
			Fault{Type: SlowRise, Gate: gi, Pin: -1},
			Fault{Type: SlowFall, Gate: gi, Pin: -1},
		)
	}
	return out
}

// Universe returns the fault list for the requested model: OutputSA,
// InputSA, or Transition (= SlowRise ∪ SlowFall).
func Universe(c *netlist.Circuit, t Type) []Fault {
	switch t {
	case OutputSA:
		return OutputUniverse(c)
	case InputSA:
		return InputUniverse(c)
	case Transition, SlowRise, SlowFall:
		return TransitionUniverse(c)
	}
	return nil
}

// Selection names which fault universes a flow targets: the stuck-at
// model alone (the paper's experiments), the transition universe alone
// (the §7 gross gate-delay extension), or their union.  It is the
// library form of the CLI's -faults sa|transition|both flag.
type Selection uint8

// Universe selections.
const (
	SelStuckAt    Selection = iota // the chosen stuck-at model only
	SelTransition                  // the SlowRise ∪ SlowFall universe only
	SelBoth                        // stuck-at followed by transition
)

// String names the selection as the CLI spells it.
func (s Selection) String() string {
	switch s {
	case SelTransition:
		return "transition"
	case SelBoth:
		return "both"
	}
	return "sa"
}

// ParseSelection resolves a CLI keyword ("sa", "transition", "both").
func ParseSelection(s string) (Selection, bool) {
	switch s {
	case "sa":
		return SelStuckAt, true
	case "transition":
		return SelTransition, true
	case "both":
		return SelBoth, true
	}
	return SelStuckAt, false
}

// SelectUniverse returns the fault list of the selection: the stuck-at
// universe of model sa (OutputSA or InputSA), the transition universe,
// or their concatenation (stuck-at first, so stuck-at fault indices are
// stable across SelStuckAt and SelBoth).
func SelectUniverse(c *netlist.Circuit, sa Type, sel Selection) []Fault {
	switch sel {
	case SelTransition:
		return TransitionUniverse(c)
	case SelBoth:
		return append(Universe(c, sa), TransitionUniverse(c)...)
	}
	return Universe(c, sa)
}

// CollapseStats summarises the cheap structural equivalences found in a
// fault list.  The paper reports uncollapsed totals, and so do we: the
// collapsing below shrinks only the *simulated* universe — every fault
// keeps its own verdict, fanned out from its class representative.
type CollapseStats struct {
	Total            int
	EquivalentToOut  int // input faults equivalent to an output fault
	SingleFanoutPins int
	// ConstantPins counts (pin, value) sites whose forcing makes the
	// gate output constant — the AND/OR-style controlling-value
	// equivalences found by the truth-table rule.
	ConstantPins int
	// DominancePairs counts input faults with a recorded structural
	// dominator (see DominatorOf).
	DominancePairs int
	// TransitionChains counts gate pairs whose transition faults were
	// merged by the unary-buffer rule (rule 3 below).
	TransitionChains int
}

// Collapsed is a representative-fault mapping over a stuck-at universe:
// faults in the same structural equivalence class provably behave
// identically at every primary output in every delay assignment, so a
// simulator only needs to run one representative per class and can copy
// the verdict to the rest.
type Collapsed struct {
	// Rep maps each index of the collapsed list to the index of its
	// class representative (the lowest list index of the class;
	// Rep[r] == r for representatives).  Stuck-at faults collapse by
	// rules 1–2, transition faults by rule 3 (unary-buffer chains);
	// anything else — only the Transition model selector, which is not
	// a concrete fault — is its own representative.
	Rep []int
	// NumClasses is the number of distinct representatives.
	NumClasses int
	// DominatorOf maps each list index to the representative list
	// index of a fault class that structurally dominates it — on a
	// combinational propagation path, every test detecting fault i
	// also detects DominatorOf[i] — or -1.  Dominance is NOT an
	// equivalence: the dominator's detection lanes are not derivable
	// from the dominated fault's, and classical dominance arguments
	// are unsound across cycles of a sequential machine, so a
	// simulator must never fan verdicts across a dominance edge (the
	// collapse-vs-full differential tests stay bit-identical because
	// only the equivalence classes drive verdict fan-out).  Pins of
	// self-dependent (C) gates never get an edge: their held output can
	// propagate a difference opposite the forced value, breaking even
	// the single-cycle step of the argument.  The ATPG uses the edges
	// as a targeting heuristic (generate tests for dominated faults
	// first, and the dominators tend to fall to the fully verified
	// collateral fault simulation); the test-compaction pass walks
	// DominatorClosure chains as *candidate* implications and verifies
	// each against the exact detection matrix before pruning.
	DominatorOf []int
	// Stats carries the informational summary.
	Stats CollapseStats
	// classDom maps a class representative to its class's dominator
	// edge (the lowest member index with a recorded DominatorOf edge
	// decides), precomputed by Collapse for DominatorClosure walks.
	classDom map[int]int
}

// Representatives returns the sorted list indices that must actually be
// simulated.
func (cl Collapsed) Representatives() []int {
	out := make([]int, 0, cl.NumClasses)
	for i, r := range cl.Rep {
		if r == i {
			out = append(out, i)
		}
	}
	return out
}

// DominatorClosure returns the transitive dominator chain of list
// index i, nearest first: the representative of the class that
// structurally dominates i's class, then that class's own dominator,
// and so on.  Each step (the first included) follows the recorded
// DominatorOf edge of any member of the current class — equivalent
// faults share every verdict, so a dominator of one member dominates
// the whole class; the lowest member index with a recorded edge
// decides the step, keeping the walk deterministic.  The result is nil
// when i's class has no recorded dominator.
// Like DominatorOf itself this is a combinational structural argument:
// transitivity holds along chained fanout-free regions, but sequential
// feedback can break every link, so callers must verify conclusions
// against simulation (the test-compaction pass checks each link
// against the exact detection matrix before acting on it).
func (cl Collapsed) DominatorClosure(i int) []int {
	classDom := cl.classDom
	if classDom == nil {
		// A hand-built Collapsed (no Collapse call) still walks
		// correctly, just without the precomputed index.
		classDom = classDominators(cl.Rep, cl.DominatorOf)
	}
	var out []int
	seen := map[int]bool{cl.Rep[i]: true}
	j, ok := classDom[cl.Rep[i]]
	for ok && !seen[j] {
		seen[j] = true
		out = append(out, j)
		j, ok = classDom[cl.Rep[j]]
	}
	return out
}

// classDominators folds per-fault dominator edges into one edge per
// class representative (first member in index order wins).
func classDominators(rep, dominatorOf []int) map[int]int {
	out := make(map[int]int)
	for m, d := range dominatorOf {
		if d < 0 {
			continue
		}
		if _, ok := out[rep[m]]; !ok {
			out[rep[m]] = d
		}
	}
	return out
}

// Members returns, for each list index, the indices sharing its class
// representative (Members[r] is the full class for representative r;
// non-representatives get nil).
func (cl Collapsed) Members() [][]int {
	out := make([][]int, len(cl.Rep))
	for i, r := range cl.Rep {
		out[r] = append(out[r], i)
	}
	return out
}

// pinForcingKind classifies what forcing one local input pin does to a
// gate's output function.
type pinForcingKind uint8

const (
	forcingNeither  pinForcingKind = iota
	forcingConstant                // output becomes the constant c: exact equivalence
	forcingToC                     // output changes, and only ever to c: dominance
)

// pinForcing scans gate g's truth table with local input p forced to v
// and reports whether the output becomes constant c (the AND/OR-style
// controlling-value equivalence, generalised to arbitrary tables and
// self-dependent gates — the self input participates in the scan, so
// constancy holds regardless of the gate's own state) or merely
// changes consistently to c (the classical dominance precondition).
func pinForcing(g *netlist.Gate, p int, v bool) (c bool, kind pinForcingKind) {
	force := func(idx int) int {
		if v {
			return idx | 1<<uint(p)
		}
		return idx &^ (1 << uint(p))
	}
	constant, consistent, changed := true, true, false
	var first logic.V
	haveFirst := false
	for idx := range g.Tbl {
		fv := g.Tbl[force(idx)]
		if !haveFirst {
			first, haveFirst = fv, true
		} else if fv != first {
			constant = false
		}
		if g.Tbl[idx] != fv {
			if changed && logic.FromBool(c) != fv {
				consistent = false
			}
			c, changed = fv == logic.One, true
		}
	}
	switch {
	case constant && haveFirst:
		return first == logic.One, forcingConstant
	case changed && consistent:
		return c, forcingToC
	}
	return false, forcingNeither
}

// Collapse computes the structural equivalence classes of a stuck-at
// fault list.  Two rules, both exact behavioural identities on the
// primary outputs (ternary and binary semantics alike):
//
//  1. Constant-making pins: if forcing local input p of gate d to v
//     makes the output function the constant c — true for any stuck
//     controlling value of an AND/OR-like gate, and for every pin of a
//     unary gate — then d.pinp/SA-v and d/SA-c are the *same* faulty
//     circuit (both replace d by the constant c), so they are
//     equivalent on every signal.  The truth-table scan covers the
//     self input of state-holding gates, so the rule is exact for
//     those too.
//  2. Single-fanout nets: when gate d's output s is read by exactly one
//     gate pin (g,p) and s is not a primary output, d/SA-v and
//     g.pinp/SA-v differ only in the value of s itself, which nothing
//     observes — the faulty circuits agree on every other signal and on
//     all primary outputs.  (Self-dependent d is fine: s's private
//     feedback never escapes.)
//
// Transition faults get one rule of their own:
//
//  3. Unary-buffer chains: when gate d's output s feeds exactly one
//     pin, that pin is the single input of a BUF gate b, s is not a
//     primary output, and d is not self-dependent, then d/STR ≡ b/STR
//     and d/STF ≡ b/STF.  Proof sketch (slow-to-rise; slow-to-fall is
//     dual): induct over Jacobi sweeps with the coupled invariant
//     p1(s)ᵈ = p1(s)ᵇ ∧ p1(b) and p0(s)ᵈ = p0(s)ᵇ ∨ p0(b) — where
//     superscripts name which gate carries the fault — plus equality
//     on every other signal.  Each phase-A and phase-B update step
//     preserves the invariant (the buffer's identity function makes
//     the masked conjunction commute with the assignment), both start
//     from the stable declared reset where s = b, and s itself is
//     unobserved, so the machines agree on every primary output at
//     every phase fixpoint of every cycle.  The argument needs d's
//     evaluation to be independent of s, hence the self-dependence
//     exclusion (a C gate re-reads s, and the two machines hold
//     different s possibilities mid-settle); it also needs b to be an
//     identity reader, so inverters and wider gates stay uncollapsed.
//     The transition differential tests assert the rule bit-exactly
//     against uncollapsed runs.
//
// Chaining the rules collapses buffer/inverter chains within a single
// model too: the classes are the connected components over a virtual
// node space of output, input and transition fault sites, and the list
// faults that land in one component form one class.  Stuck-at and
// transition nodes live in disjoint spaces — a slow-to-rise gate is
// not a stuck-at-0 gate, so the models never merge.
//
// On top of the classes, Collapse records structural *dominance* for
// pins inside fanout-free regions (see Collapsed.DominatorOf): when
// forcing a pin changes the output only ever to c, the gate is not
// self-dependent, and the gate's output is single-fanout and
// unobserved, any test that detects the pin fault drives the gate
// output to c against a good value of ¬c and propagates it through the
// same fanout-free path that d/SA-c would use.  That is a
// test-generation ordering hint, not an equivalence — sequential state
// can break the classical argument — so it never merges classes.
func Collapse(c *netlist.Circuit, list []Fault) Collapsed {
	cl := Collapsed{Rep: make([]int, len(list))}
	cl.Stats.Total = len(list)

	// Fanout pin census: readers[s] is the unique (gate, pin) reading s
	// when pinCount[s] == 1.  Scanning fanins (rather than Fanouts)
	// counts a gate reading s on two pins twice, as it must.
	type pinRef struct{ gate, pin int }
	pinCount := make([]int, c.NumSignals())
	reader := make([]pinRef, c.NumSignals())
	for gi := 0; gi < c.NumGates(); gi++ {
		for p, s := range c.Gates[gi].Fanin {
			pinCount[s]++
			reader[s] = pinRef{gate: gi, pin: p}
		}
	}
	isPO := make([]bool, c.NumSignals())
	for _, s := range c.Outputs {
		isPO[s] = true
	}
	for s := 0; s < c.NumSignals(); s++ {
		if pinCount[s] == 1 {
			cl.Stats.SingleFanoutPins++
		}
	}

	// Virtual node space: 2 output-SA nodes per gate, then input-SA
	// nodes allocated on demand.
	uf := newUnionFind(2 * c.NumGates())
	outNode := func(gi int, one bool) int {
		n := 2 * gi
		if one {
			n++
		}
		return n
	}
	inNodes := make(map[[3]int]int) // (gate, pin, value) → node
	inNode := func(gi, pin int, one bool) int {
		v := 0
		if one {
			v = 1
		}
		key := [3]int{gi, pin, v}
		if n, ok := inNodes[key]; ok {
			return n
		}
		n := uf.add()
		inNodes[key] = n
		return n
	}
	trNodes := make(map[[2]int]int) // (gate, slowRise) → node, disjoint from stuck-at space
	trNode := func(gi int, slowRise bool) int {
		v := 0
		if slowRise {
			v = 1
		}
		key := [2]int{gi, v}
		if n, ok := trNodes[key]; ok {
			return n
		}
		n := uf.add()
		trNodes[key] = n
		return n
	}

	for gi := 0; gi < c.NumGates(); gi++ {
		g := &c.Gates[gi]
		// Rule 1: pins whose forcing makes the output constant.
		for p := range g.Fanin {
			for _, v := range []bool{false, true} {
				if cv, kind := pinForcing(g, p, v); kind == forcingConstant {
					cl.Stats.ConstantPins++
					uf.union(inNode(gi, p, v), outNode(gi, cv))
				}
			}
		}
		// Rule 2: this gate's output feeds exactly one pin and is not
		// observable itself.
		s := g.Out
		if pinCount[s] == 1 && !isPO[s] {
			r := reader[s]
			for _, v := range []bool{false, true} {
				uf.union(outNode(gi, v), inNode(r.gate, r.pin, v))
			}
			// Rule 3: transition faults ride unary buffers.  The reader
			// must be a BUF on its only pin, this gate must not re-read
			// its own output, and the reader must be a different gate (a
			// self-looped buffer reads its own output, not s).
			rb := &c.Gates[r.gate]
			if r.gate != gi && rb.Kind == netlist.Buf && len(rb.Fanin) == 1 && !g.Kind.SelfDependent() {
				uf.union(trNode(gi, true), trNode(r.gate, true))
				uf.union(trNode(gi, false), trNode(r.gate, false))
				cl.Stats.TransitionChains++
			}
		}
	}

	// Group list faults by component; representative = lowest index.
	repOf := make(map[int]int) // component root → representative index
	for i, f := range list {
		var n int
		switch f.Type {
		case OutputSA:
			n = outNode(f.Gate, f.Value == logic.One)
		case InputSA:
			n = inNode(f.Gate, f.Pin, f.Value == logic.One)
		case SlowRise:
			n = trNode(f.Gate, true)
		case SlowFall:
			n = trNode(f.Gate, false)
		default:
			// Only the Transition model selector lands here; it names a
			// universe, not a concrete fault, and collapses with nothing.
			cl.Rep[i] = i
			cl.NumClasses++
			continue
		}
		root := uf.find(n)
		if r, ok := repOf[root]; ok {
			cl.Rep[i] = r
		} else {
			repOf[root] = i
			cl.Rep[i] = i
			cl.NumClasses++
		}
	}
	for _, f := range list {
		if f.Type == InputSA && pinCount[f.Site(c)] == 1 {
			cl.Stats.EquivalentToOut++
		}
	}

	// Dominance pass: only meaningful between distinct classes, and
	// only recorded when the dominating output fault's class actually
	// has a representative in the list.
	cl.DominatorOf = make([]int, len(list))
	for i := range cl.DominatorOf {
		cl.DominatorOf[i] = -1
	}
	for i, f := range list {
		if f.Type != InputSA {
			continue
		}
		g := &c.Gates[f.Gate]
		if g.Kind.SelfDependent() {
			// C-gate exclusion: the forcingToC scan compares table rows at
			// the SAME self bit, but the pin-faulty machine's self input is
			// its own held output, which can diverge from the good one — a
			// held C gate can propagate a ¬c difference, so even the
			// single-cycle dominance step is unsound for state-holding
			// gates.
			continue
		}
		if pinCount[g.Out] != 1 || isPO[g.Out] {
			continue // dominance argued inside fanout-free regions only
		}
		cv, kind := pinForcing(g, f.Pin, f.Value == logic.One)
		if kind != forcingToC {
			continue
		}
		if j, ok := repOf[uf.find(outNode(f.Gate, cv))]; ok && cl.Rep[i] != j {
			cl.DominatorOf[i] = j
			cl.Stats.DominancePairs++
		}
	}
	cl.classDom = classDominators(cl.Rep, cl.DominatorOf)
	return cl
}

// unionFind is a plain weighted union-find with path halving over a
// growable node space.
type unionFind struct {
	parent []int
	rank   []uint8
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]uint8, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) add() int {
	n := len(uf.parent)
	uf.parent = append(uf.parent, n)
	uf.rank = append(uf.rank, 0)
	return n
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
