// Package atpg generates synchronous test-pattern sequences for
// asynchronous circuits on top of the CSSG abstraction, following §5 of
// the paper:
//
//   - Random TPG (§5.4): seeded random walks over the CSSG's valid
//     vectors, fault-simulated 64 faults at a time with the parallel
//     ternary simulator.  Cheap, typically covers ~half the faults.
//   - Three-phase ATPG (§5.1–5.3): fault activation (stable states where
//     the fault site carries the opposite value), state justification
//     (driving the circuit from reset towards activation) and state
//     differentiation (making the corrupted state observable at a
//     primary output).  The implementation runs an exact breadth-first
//     search over the product of the good CSSG and the conservative
//     ternary faulty machine, which realises justification and
//     differentiation together and handles the paper's Figure-3/4
//     subtleties: corruption noticed early yields a shorter test, and a
//     fault is only counted when detection is guaranteed for every delay
//     assignment.  Exhausting the finite product space proves the fault
//     untestable under the model.
//   - Fault simulation (§5.4): every found test is simulated against all
//     remaining faults to drop collaterally-covered ones.
package atpg

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/podem"
	"repro/internal/sim"
)

// Phase identifies which stage of the flow first covered a fault
// (the paper's "rnd", "3-ph" and "sim" columns).
type Phase uint8

// Detection phases.  PhasePodem is appended after the paper's three so
// the historical values stay stable; in flow order it sits between the
// random walks and the exhaustive three-phase fallback.
const (
	PhaseNone Phase = iota
	PhaseRandom
	PhaseThree
	PhaseSim
	PhasePodem
)

// String names the phase as in the paper's tables.
func (p Phase) String() string {
	switch p {
	case PhaseRandom:
		return "rnd"
	case PhaseThree:
		return "3-ph"
	case PhaseSim:
		return "sim"
	case PhasePodem:
		return "podem"
	}
	return "-"
}

// Test is one synchronous test sequence: input vectors applied from the
// reset state, with the expected good-circuit responses per cycle.
type Test struct {
	Patterns []uint64 // primary-input vectors, applied in order
	Expected []uint64 // good-circuit primary outputs after each vector
}

// FaultResult records the outcome for one fault.
type FaultResult struct {
	Fault      faults.Fault
	TestIndex  int // index into Result.Tests (when detected)
	Detected   bool
	Phase      Phase
	Untestable bool // product search exhausted: no guaranteed test exists
	Aborted    bool // resource cap hit before a conclusion
}

// Options tunes the ATPG flow.
type Options struct {
	Seed            int64 // random-walk seed (default 1)
	RandomSequences int   // number of random walks (default 256; 0 disables after defaulting—use SkipRandom)
	RandomLength    int   // vectors per walk (default 24)
	SkipRandom      bool  // ablation: skip the random phase entirely
	SkipFaultSim    bool  // ablation: skip collateral fault dropping
	// MaxProductStates caps the differentiation BFS per fault
	// (default 200000); hitting it marks the fault Aborted.
	MaxProductStates int
	// MaxFaultySet caps the exact state set tracked for the faulty
	// circuit (default 1024); exceeding it marks the fault Aborted.
	MaxFaultySet int
	// FaultSimWorkers shards the bit-parallel fault simulation of the
	// random phase across this many goroutines (0: GOMAXPROCS).
	FaultSimWorkers int
	// FaultSimLanes selects the lane width of the bit-parallel fault
	// simulation: 64 (default), 128 or 256 random walks ride one batch.
	// Unsupported values fall back to the default width.  The generated
	// tests and per-fault verdicts are identical across widths; wider
	// lanes amortise each gate evaluation over more walks.
	FaultSimLanes int
	// SkipPodem disables the deterministic PODEM phase that runs
	// between the random walks and the exhaustive fallback.
	SkipPodem bool
	// PodemBudget caps the primary-input assignments the deterministic
	// phase spends per target fault (0: podem's default, 512).
	PodemBudget int
	// PodemCycles caps the synchronous frames per deterministic target
	// (0: podem's default, 8).
	PodemCycles int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RandomSequences == 0 {
		o.RandomSequences = 256
	}
	if o.RandomLength == 0 {
		o.RandomLength = 24
	}
	if o.MaxProductStates == 0 {
		o.MaxProductStates = 200000
	}
	if o.MaxFaultySet == 0 {
		o.MaxFaultySet = 1024
	}
	switch o.FaultSimLanes {
	case 0, 64, 128, 256:
	default:
		// A library-facing option must not panic the flow; fall back to
		// the default width (cmd/satpg rejects bad -lanes up front).
		o.FaultSimLanes = 0
	}
	return o
}

// Result is the outcome of a full ATPG run.
type Result struct {
	Model      faults.Type
	Total      int
	Covered    int
	ByPhase    map[Phase]int
	Untestable int
	Aborted    int
	Tests      []Test
	PerFault   []FaultResult
	CPU        time.Duration
	// FaultSim aggregates the bit-parallel fault simulator's work
	// counters over the run's random phase (patterns, gate evaluations,
	// state-buffer allocations, good-trace cache outcomes) — the raw
	// material of cmd/satpg's -stats line.
	FaultSim fsim.Stats
	// Podem aggregates the deterministic phase's search counters
	// (targets, decisions, backtracks, group settles).
	Podem podem.Stats
	// Fallback counts the exhaustive three-phase product searches run
	// after the cheaper phases (universe flow only) — the invocations
	// the deterministic phase exists to avoid.
	Fallback int
	// Graph is the CSSG the universe flow ran over (nil for the direct
	// flow): satpg.Run hands it back so callers can derive tester
	// programs and baselines without re-abstracting the circuit.
	Graph *core.CSSG
}

// Coverage returns covered/total (1 for an empty universe).
func (r *Result) Coverage() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Covered) / float64(r.Total)
}

// DetectionsByTest is the per-test detection provenance of the run:
// for each test index, the universe indices of the faults whose
// detection was first credited to that test (the inverse of
// FaultResult.TestIndex).  This is generation-time attribution — which
// test earned its place in the program — not the full detection
// matrix: a compaction pass must rebuild the exact matrix
// (internal/compact) because late tests typically re-detect many
// faults credited to earlier ones.
func (r *Result) DetectionsByTest() [][]int {
	out := make([][]int, len(r.Tests))
	for fi, fr := range r.PerFault {
		if fr.Detected && fr.TestIndex >= 0 {
			out[fr.TestIndex] = append(out[fr.TestIndex], fi)
		}
	}
	return out
}

// Summary renders a one-line summary in the spirit of a table row.
func (r *Result) Summary() string {
	return fmt.Sprintf("tot=%d cov=%d (%.2f%%) rnd=%d podem=%d 3ph=%d sim=%d untestable=%d aborted=%d fallback=%d tests=%d cpu=%v",
		r.Total, r.Covered, 100*r.Coverage(), r.ByPhase[PhaseRandom], r.ByPhase[PhasePodem],
		r.ByPhase[PhaseThree], r.ByPhase[PhaseSim], r.Untestable, r.Aborted, r.Fallback,
		len(r.Tests), r.CPU.Round(time.Millisecond))
}

// Run executes the full flow (random TPG, then three-phase ATPG with
// fault simulation) for the given fault model over a prebuilt CSSG.
// Every model — the stuck-at pair and the Transition gross gate-delay
// extension — rides the same flow: the bit-parallel simulators inject
// transition faults as directional override masks, so the random phase
// and collateral fault dropping apply to them exactly as to stuck-at
// faults, with the exact set-semantics machine confirming every
// claimed detection either way.
func Run(g *core.CSSG, model faults.Type, opts Options) *Result {
	return RunUniverse(g, model, faults.Universe(g.C, model), opts)
}

// RunUniverse is Run over an explicit fault universe — the entry point
// for combined universes (stuck-at ∪ transition, see
// faults.SelectUniverse).  model is recorded in the Result and names
// the stuck-at flavour of a mixed list; the universe itself decides
// what is simulated.
func RunUniverse(g *core.CSSG, model faults.Type, universe []faults.Fault, opts Options) *Result {
	res, _ := RunUniverseCtx(context.Background(), g, model, universe, opts)
	return res
}

// RunUniverseCtx is RunUniverse with cooperative cancellation, checked
// at every batch, target and fallback-fault boundary.  On cancellation
// it returns the partial Result accumulated so far together with
// ctx.Err(): every detection already marked is final (each was exactly
// confirmed), and the faults not yet reached simply stay undetected.
func RunUniverseCtx(ctx context.Context, g *core.CSSG, model faults.Type, universe []faults.Fault, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	res := &Result{
		Model:    model,
		Total:    len(universe),
		ByPhase:  map[Phase]int{},
		PerFault: make([]FaultResult, len(universe)),
		Graph:    g,
	}
	for i, f := range universe {
		res.PerFault[i] = FaultResult{Fault: f, TestIndex: -1}
	}

	remaining := make([]int, 0, len(universe)) // indices into PerFault
	for i := range universe {
		remaining = append(remaining, i)
	}

	// confirm re-validates ternary-simulation detections with the exact
	// set-semantics machine.  Ternary detection corresponds to the fair
	// (finite-delay) semantics; the CSSG uses the paper's literal
	// path-based TCR_k, which is strictly more pessimistic on circuits
	// with self-oscillating gates.  Re-validation keeps every reported
	// detection consistent with the pessimistic model (see DESIGN.md §5).
	confirm := func(test Test, cand []int) []int {
		out := cand[:0]
		for _, fi := range cand {
			if Verify(g, universe[fi], test, opts) {
				out = append(out, fi)
			}
		}
		return out
	}
	// collateral finds the remaining faults a new test also covers: the
	// 64-way fault-parallel ternary screen (which injects stuck-at and
	// transition faults alike) proposes candidates, the exact machine
	// confirms them.
	collateral := func(test Test) []int {
		return confirm(test, simulateTest(g, test, universe, remaining))
	}

	// Phase 1: random TPG.  The walks are drawn exactly as before, but
	// fault simulation is batched: a lane-width of walks (64–256, per
	// FaultSimLanes) rides one fsim.Batch and every remaining fault is
	// evaluated against all of them in one pass, sharded across
	// workers.  NoDrop keeps the full
	// fault × walk matrix so the sequential test-selection replay below
	// is observably identical to per-walk simulation (a ternary detection
	// that the exact confirmation rejects stays live for later walks);
	// confirmed faults are dropped manually.
	if !opts.SkipRandom && g.Stats.NumEdges > 0 {
		rng := rand.New(rand.NewSource(opts.Seed))
		// max guards a negative RandomSequences, which the pre-batching
		// loop treated as "no walks".
		walks := make([]Test, max(opts.RandomSequences, 0))
		for seq := range walks {
			walks[seq] = randomWalk(g, rng, opts.RandomLength)
		}
		fs, err := fsim.New(g.C, universe, fsim.Options{
			Workers: opts.FaultSimWorkers, Lanes: opts.FaultSimLanes,
			NoDrop: true,
		})
		if err != nil {
			// Unreachable: faults.Universe never emits the Transition
			// selector and withDefaults normalises FaultSimLanes.
			panic("atpg: " + err.Error())
		}
		width := fs.Lanes()
		for base := 0; base < len(walks) && len(remaining) > 0 && ctx.Err() == nil; base += width {
			end := min(base+width, len(walks))
			chunk := walks[base:end]
			batch := fsim.Batch{
				Seqs:     make([][]uint64, len(chunk)),
				Expected: make([][]uint64, len(chunk)),
			}
			for l, w := range chunk {
				batch.Seqs[l] = w.Patterns
				batch.Expected[l] = w.Expected
			}
			br, err := fs.SimulateBatch(batch)
			if err != nil {
				panic("atpg: " + err.Error())
			}
			for l, test := range chunk {
				if len(test.Patterns) == 0 || len(remaining) == 0 {
					continue
				}
				var cand []int
				for _, fi := range remaining {
					if br.Lanes[fi].Has(l) {
						cand = append(cand, fi)
					}
				}
				detected := confirm(test, cand)
				if len(detected) == 0 {
					continue
				}
				res.Tests = append(res.Tests, test)
				ti := len(res.Tests) - 1
				remaining = mark(res, remaining, detected, PhaseRandom, ti)
				for _, fi := range detected {
					fs.Drop(fi)
				}
			}
		}
		res.FaultSim = fs.Stats()
	}

	// Deterministic phase: bit-parallel PODEM on the faults the random
	// walks missed, ordered by the structural scorer (random-phase
	// near-misses, dominator leverage, cone size).  Every candidate
	// test is re-walked on the CSSG — the graph's TCR_k semantics are
	// strictly more pessimistic than the plain ternary settling the
	// search runs on — and exactly confirmed before being marked, so
	// this phase can only add detections, never change a verdict.
	if !opts.SkipPodem && len(remaining) > 0 && ctx.Err() == nil {
		if pg, err := podem.New(g.C, podem.Options{
			Lanes: opts.FaultSimLanes, DecisionBudget: opts.PodemBudget, MaxCycles: opts.PodemCycles,
		}); err == nil {
			order := podem.OrderTargets(g.C, universe, remaining, podemFeatures(g.C, universe, remaining, res))
			for _, fi := range order {
				if ctx.Err() != nil {
					break
				}
				if res.PerFault[fi].Detected {
					continue // collateral of an earlier podem test
				}
				pt, ok := pg.Target(ctx, universe[fi])
				if !ok {
					continue
				}
				test, ok := walkTest(g, pt.Patterns)
				if !ok {
					continue // not walkable on the CSSG
				}
				if !Verify(g, universe[fi], test, opts) {
					continue // pessimistic model rejects the detection
				}
				res.Tests = append(res.Tests, test)
				ti := len(res.Tests) - 1
				remaining = mark(res, remaining, []int{fi}, PhasePodem, ti)
				if !opts.SkipFaultSim && len(remaining) > 0 {
					remaining = mark(res, remaining, collateral(test), PhaseSim, ti)
				}
			}
			res.Podem = pg.Stats()
		}
	}

	// Phase 2+3 targeting order: dominated faults first.  A test
	// generated for a dominated fault tends to detect its structural
	// dominator too, and the collateral fault-simulation pass below
	// confirms and drops it — so dominator classes go to the back of
	// the queue and are usually never targeted directly.  Pure
	// ordering heuristic: every claimed detection is still simulated
	// and exactly confirmed, so coverage soundness is untouched.
	if len(remaining) > 1 && !opts.SkipFaultSim {
		cl := faults.Collapse(g.C, universe)
		domClass := make(map[int]bool)
		for _, j := range cl.DominatorOf {
			if j >= 0 {
				domClass[cl.Rep[j]] = true
			}
		}
		if len(domClass) > 0 {
			front := make([]int, 0, len(remaining))
			var back []int
			for _, fi := range remaining {
				if domClass[cl.Rep[fi]] {
					back = append(back, fi)
				} else {
					front = append(front, fi)
				}
			}
			remaining = append(front, back...)
		}
	}

	// Phase 2+3: three-phase ATPG per remaining fault, with fault
	// simulation of each new test over the rest.
	for len(remaining) > 0 {
		if ctx.Err() != nil {
			break
		}
		fi := remaining[0]
		fr := &res.PerFault[fi]
		res.Fallback++
		test, outcome := GenerateTest(g, fr.Fault, opts)
		switch outcome {
		case OutcomeFound:
			res.Tests = append(res.Tests, test)
			ti := len(res.Tests) - 1
			fr.Detected = true
			fr.Phase = PhaseThree
			fr.TestIndex = ti
			res.ByPhase[PhaseThree]++
			res.Covered++
			remaining = remaining[1:]
			if !opts.SkipFaultSim && len(remaining) > 0 {
				remaining = mark(res, remaining, collateral(test), PhaseSim, ti)
			}
		case OutcomeUntestable:
			fr.Untestable = true
			res.Untestable++
			remaining = remaining[1:]
		case OutcomeAborted:
			fr.Aborted = true
			res.Aborted++
			remaining = remaining[1:]
		}
	}
	res.CPU = time.Since(start)
	return res, ctx.Err()
}

// walkTest re-walks a pattern sequence on the CSSG, rejecting it when
// any vector is invalid in its node (the universe flow only emits
// CSSG-walkable tests) and rebuilding the expected responses from the
// graph's output labels.
func walkTest(g *core.CSSG, patterns []uint64) (Test, bool) {
	t := Test{
		Patterns: make([]uint64, 0, len(patterns)),
		Expected: make([]uint64, 0, len(patterns)),
	}
	node := g.Init
	for _, p := range patterns {
		next, ok := g.Succ(node, p)
		if !ok {
			return Test{}, false
		}
		t.Patterns = append(t.Patterns, p)
		t.Expected = append(t.Expected, g.OutputsOf(next))
		node = next
	}
	return t, len(t.Patterns) > 0
}

// podemFeatures assembles the structural scorer's inputs: dominator
// leverage from the collapse rules and near-miss counts replayed off
// the random phase's accepted tests.
func podemFeatures(c *netlist.Circuit, universe []faults.Fault, remaining []int, res *Result) podem.TargetFeatures {
	ft := podem.TargetFeatures{DomDepth: make([]int, len(universe))}
	cl := faults.Collapse(c, universe)
	for _, fi := range remaining {
		ft.DomDepth[fi] = len(cl.DominatorClosure(fi))
	}
	seqs := make([][]uint64, len(res.Tests))
	for i, t := range res.Tests {
		seqs[i] = t.Patterns
	}
	ft.NearMiss = podem.NearMisses(c, universe, remaining, seqs)
	return ft
}

// mark flags the given fault indices as detected and removes them from
// the remaining list (preserving order).
func mark(res *Result, remaining, detected []int, phase Phase, testIndex int) []int {
	det := map[int]bool{}
	for _, fi := range detected {
		det[fi] = true
		fr := &res.PerFault[fi]
		fr.Detected = true
		fr.Phase = phase
		fr.TestIndex = testIndex
		res.ByPhase[phase]++
		res.Covered++
	}
	out := remaining[:0]
	for _, fi := range remaining {
		if !det[fi] {
			out = append(out, fi)
		}
	}
	return out
}

// randomWalk produces a random test sequence of valid vectors from reset.
func randomWalk(g *core.CSSG, rng *rand.Rand, length int) Test {
	var t Test
	cur := g.Init
	for step := 0; step < length; step++ {
		edges := g.Edges[cur]
		if len(edges) == 0 {
			break
		}
		e := edges[rng.Intn(len(edges))]
		t.Patterns = append(t.Patterns, e.Pattern)
		t.Expected = append(t.Expected, g.OutputsOf(e.To))
		cur = e.To
	}
	return t
}

// simulateTest runs the test against the faults named by `candidates`
// (indices into universe) with the 64-way parallel ternary simulator and
// returns the indices whose detection is guaranteed at some cycle.
func simulateTest(g *core.CSSG, t Test, universe []faults.Fault, candidates []int) []int {
	var detected []int
	for base := 0; base < len(candidates); base += sim.Lanes {
		end := base + sim.Lanes
		if end > len(candidates) {
			end = len(candidates)
		}
		batch := candidates[base:end]
		fl := make([]faults.Fault, len(batch))
		for i, fi := range batch {
			fl[i] = universe[fi]
		}
		par := sim.NewParallel(g.C, fl)
		var done uint64
		for cyc, p := range t.Patterns {
			par.Apply(p)
			newly := par.DetectedVs(t.Expected[cyc]) &^ done
			done |= newly
			for newly != 0 {
				lane := bits.TrailingZeros64(newly)
				newly &^= 1 << uint(lane)
				detected = append(detected, batch[lane])
			}
		}
	}
	return detected
}

// Outcome classifies GenerateTest results.
type Outcome uint8

// GenerateTest outcomes.
const (
	OutcomeFound Outcome = iota
	OutcomeUntestable
	OutcomeAborted
)

// Activation returns the CSSG nodes whose stable state excites the fault
// (§5.1): the site signal carries the complement of the stuck value.
func Activation(g *core.CSSG, f faults.Fault) []int {
	return g.StatesWhere(func(s uint64) bool { return f.ExcitedIn(g.C, s) })
}

// GenerateTest searches for a guaranteed test for one fault: an exact
// BFS over (good CSSG node, faulty ternary state) product states,
// applying only vectors that are valid for the good circuit.  The search
// realises state justification and state differentiation together;
// detection anywhere along a justification prefix (Figure 3a) naturally
// yields the shorter test.  If the finite product space is exhausted the
// fault is proven untestable under the conservative model.
func GenerateTest(g *core.CSSG, f faults.Fault, opts Options) (Test, Outcome) {
	opts = opts.withDefaults()
	fm := newExactMachine(g, f, opts)
	initSet, ok := fm.reset()
	if !ok {
		return Test{}, OutcomeAborted
	}
	entries := []productEntry{{good: g.Init, faulty: initSet, parent: -1}}
	visited := map[string]bool{productKey(g.Init, initSet): true}

	// The reset state itself may already expose the fault (§4: "still
	// some fault could be detected when forcing s1 as reset state").
	if detectsAt(g, g.Init, initSet) {
		return buildTest(g, entries, 0), OutcomeFound
	}

	for head := 0; head < len(entries); head++ {
		cur := entries[head]
		for _, e := range g.Edges[cur.good] {
			nextSet, ok := fm.step(cur.faulty, e.Pattern)
			if !ok {
				return Test{}, OutcomeAborted
			}
			key := productKey(e.To, nextSet)
			if visited[key] {
				continue
			}
			visited[key] = true
			entries = append(entries, productEntry{good: e.To, faulty: nextSet, parent: head, pat: e.Pattern})
			idx := len(entries) - 1
			if detectsAt(g, e.To, nextSet) {
				return buildTest(g, entries, idx), OutcomeFound
			}
			if len(entries) > opts.MaxProductStates {
				return Test{}, OutcomeAborted
			}
		}
	}
	return Test{}, OutcomeUntestable
}

// productEntry is one node of the justification/differentiation search:
// the good machine's CSSG node paired with the exact set of states the
// faulty circuit may occupy, plus backtracking links.
type productEntry struct {
	good   int
	faulty []uint64
	parent int
	pat    uint64
}

// exactMachine tracks the faulty circuit's exact state set across test
// cycles: the fault is materialised into a circuit copy and each cycle
// is analysed with the §3.2 interleaving exploration (core.Explore), so
// non-determinism and oscillation in the faulty circuit are represented
// faithfully rather than approximated with ternary values.
type exactMachine struct {
	fc     *netlist.Circuit
	opts   core.Options
	setCap int
	memo   map[[2]uint64][]uint64 // (state, pattern) → reach-at-k
}

func newExactMachine(g *core.CSSG, f faults.Fault, opts Options) *exactMachine {
	return &exactMachine{
		fc:     faults.Apply(g.C, f),
		opts:   core.Options{K: g.K},
		setCap: opts.MaxFaultySet,
		memo:   make(map[[2]uint64][]uint64),
	}
}

// reset settles the faulty circuit from the declared reset state (which
// the fault may have destabilised).
func (m *exactMachine) reset() ([]uint64, bool) {
	init := m.fc.InitState()
	cr := core.Explore(m.fc, init, m.opts)
	if cr.Truncated || len(cr.ReachK) > m.setCap {
		return nil, false
	}
	return cr.ReachK, true
}

// step applies one test vector to every state in the set and unions the
// exact cycle outcomes.
func (m *exactMachine) step(set []uint64, pattern uint64) ([]uint64, bool) {
	seen := make(map[uint64]bool, len(set))
	var out []uint64
	for _, s := range set {
		key := [2]uint64{s, pattern}
		reach, ok := m.memo[key]
		if !ok {
			cr := core.Explore(m.fc, m.fc.WithInputBits(s, pattern), m.opts)
			if cr.Truncated {
				return nil, false
			}
			reach = cr.ReachK
			m.memo[key] = reach
		}
		for _, t := range reach {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
				if len(out) > m.setCap {
					return nil, false
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// detectsAt reports whether detection is guaranteed in this product
// state: every state the faulty circuit may occupy shows primary
// outputs different from the good response (cf. Figures 3b and 4 — if
// even one possible faulty state matches the good outputs, the tester
// cannot conclude, so the sequence must continue).
func detectsAt(g *core.CSSG, goodNode int, faultySet []uint64) bool {
	if len(faultySet) == 0 {
		return false
	}
	goodOut := g.OutputsOf(goodNode)
	for _, s := range faultySet {
		if g.C.OutputBits(s) == goodOut {
			return false
		}
	}
	return true
}

func productKey(good int, faultySet []uint64) string {
	var sb []byte
	sb = append(sb, byte(good), byte(good>>8), byte(good>>16), byte(good>>24))
	for _, s := range faultySet {
		for b := 0; b < 8; b++ {
			sb = append(sb, byte(s>>uint(8*b)))
		}
	}
	return string(sb)
}

// Verify replays a test against one fault with the exact-set machine and
// reports whether detection is guaranteed at some cycle (or at the reset
// state, for an empty test).
func Verify(g *core.CSSG, f faults.Fault, t Test, opts Options) bool {
	opts = opts.withDefaults()
	fm := newExactMachine(g, f, opts)
	set, ok := fm.reset()
	if !ok {
		return false
	}
	if detectsAt(g, g.Init, set) {
		return true
	}
	for cyc, p := range t.Patterns {
		set, ok = fm.step(set, p)
		if !ok {
			return false
		}
		allDiffer := len(set) > 0
		for _, s := range set {
			if g.C.OutputBits(s) == t.Expected[cyc] {
				allDiffer = false
				break
			}
		}
		if allDiffer {
			return true
		}
	}
	return false
}

// buildTest reconstructs the pattern sequence leading to entries[idx]
// and fills in the expected good responses per cycle.
func buildTest(g *core.CSSG, entries []productEntry, idx int) Test {
	var rev []uint64
	for cur := idx; entries[cur].parent >= 0; cur = entries[cur].parent {
		rev = append(rev, entries[cur].pat)
	}
	t := Test{
		Patterns: make([]uint64, 0, len(rev)),
		Expected: make([]uint64, 0, len(rev)),
	}
	node := g.Init
	for i := len(rev) - 1; i >= 0; i-- {
		p := rev[i]
		next, ok := g.Succ(node, p)
		if !ok {
			panic("atpg: reconstructed test not walkable")
		}
		t.Patterns = append(t.Patterns, p)
		t.Expected = append(t.Expected, g.OutputsOf(next))
		node = next
	}
	return t
}
