package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	satpg "repro"
	"repro/internal/atpg"
	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/podem"
)

// validateTrials is the Monte-Carlo delay-assignment count per program
// and per detected fault of ValidateOnTester.
const validateTrials = 8

// flowCase is one circuit of a pipeline workload and the fault models
// it is run under.
type flowCase struct {
	name   string
	c      *satpg.Circuit
	models []satpg.FaultModel
}

// pipelineSpec describes a circuit → compacted, validated program
// workload.
type pipelineSpec struct {
	cssg   bool // CSSG flow (Abstract, GenerateCtx, ValidateOnTester) or direct flow
	flow   satpg.Flow
	faults satpg.FaultSelection
	// load builds or parses the workload's circuits; it is the timed
	// set-up.  Each parse or build is traced as netlist.parse.
	load func(cfg *config, tr *tracer) ([]flowCase, error)
}

var pipelines = map[string]pipelineSpec{
	"table1-cssg": {
		cssg: true, faults: satpg.SelectStuckAt,
		load: func(cfg *config, tr *tracer) ([]flowCase, error) {
			id := tr.begin("netlist.parse", 0)
			suite := satpg.SpeedIndependentSuite()
			tr.end(id)
			if cfg.small {
				suite = suite[:2]
			}
			out := make([]flowCase, len(suite))
			for i, b := range suite {
				out[i] = flowCase{b.Name, b.Circuit, []satpg.FaultModel{satpg.OutputStuckAt, satpg.InputStuckAt}}
			}
			return out, nil
		},
	},
	"iscas-direct": {
		// FlowAuto picks the direct flow for s349; the tests' tiny
		// circuit needs it forced.
		cssg: false, flow: satpg.FlowDirect, faults: satpg.SelectBoth,
		load: func(cfg *config, tr *tracer) ([]flowCase, error) {
			name := "s349"
			if cfg.small {
				name = "s27"
			}
			text, err := os.ReadFile(filepath.Join(cfg.root, "examples", "iscas", name+".ckt"))
			if err != nil {
				return nil, err
			}
			id := tr.begin("netlist.parse", 0)
			c, err := satpg.ParseCircuitString(string(text), name)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			return []flowCase{{name, c, []satpg.FaultModel{satpg.InputStuckAt}}}, nil
		},
	},
}

func (spec pipelineSpec) options(seed int64) satpg.Options {
	return satpg.Options{Seed: optionSeed(seed), Flow: spec.flow, Faults: spec.faults, Compact: satpg.CompactAll}
}

// flowOut is the output of one (circuit, model) flow.
type flowOut struct {
	c       *satpg.Circuit
	model   satpg.FaultModel
	g       *satpg.CSSG
	res     *satpg.Result
	progs   []satpg.Program // before compaction
	cr      *satpg.CompactionResult
	vectors int // vectors in the compacted program
	genSpan int
}

// passOut is one pass over every case of a pipeline workload.
type passOut struct {
	flows   []flowOut
	seconds float64
	caseMS  []float64 // wall time of each case: one circuit under every model
	rssMB   float64   // peak RSS during the pass
	root    int       // root span (0 untraced)
	cache   fsim.CacheStats
}

// runPass runs every case through the flow once.  Failed flows are
// counted in o; tr may be nil.
func runPass(cfg *config, spec pipelineSpec, cases []flowCase, opts satpg.Options, tr *tracer, o *outcome) passOut {
	ctx := context.Background()
	var p passOut
	cache0 := clearTraceCache()
	// Each pass starts from a collected heap returned to the OS, so its
	// peak RSS does not depend on how many passes ran before it.
	debug.FreeOSMemory()
	resetPeakRSS()
	start := time.Now()
	p.root = tr.begin("pipeline", 0)
	for _, fc := range cases {
		caseStart := time.Now()
		var g *satpg.CSSG
		if spec.cssg {
			id := tr.begin("core.build", p.root)
			var err error
			g, err = satpg.Abstract(fc.c, opts)
			tr.end(id)
			if err != nil {
				for range fc.models {
					o.attempt()
					o.fail("%s: abstract: %v", fc.name, err)
				}
				continue
			}
		}
		for _, m := range fc.models {
			o.attempt()
			f := flowOut{c: fc.c, model: m, g: g}
			var err error
			f.genSpan = tr.begin("atpg.generate", p.root)
			if spec.cssg {
				f.res, err = satpg.GenerateCtx(ctx, g, m, opts)
			} else {
				f.res, err = satpg.Run(ctx, fc.c, m, opts)
			}
			tr.end(f.genSpan)
			if err != nil {
				o.fail("%s: generate: %v", fc.name, err)
				p.flows = append(p.flows, f)
				continue
			}
			if cfg.tamperResult != nil {
				cfg.tamperResult(f.res)
			}
			if spec.cssg {
				f.progs = satpg.Programs(g, f.res)
			} else {
				f.progs = satpg.ProgramsForCircuit(fc.c, f.res)
			}
			id := tr.begin("compact", p.root)
			f.cr, err = satpg.CompactProgram(fc.c, f.progs, m, opts)
			tr.end(id)
			if err != nil {
				o.fail("%s: compact: %v", fc.name, err)
				p.flows = append(p.flows, f)
				continue
			}
			for _, pr := range f.cr.Programs {
				f.vectors += len(pr.Patterns)
			}
			if spec.cssg {
				id = tr.begin("tester.validate", p.root)
				err = satpg.ValidateOnTester(g, f.res, validateTrials, opts.Seed)
			} else {
				id = tr.begin("atpg.verify_direct", p.root)
				err = satpg.ValidateDirect(fc.c, f.res)
			}
			tr.end(id)
			if err != nil {
				o.fail("%s/%v: validation: %v", fc.name, m, err)
			}
			p.flows = append(p.flows, f)
		}
		p.caseMS = append(p.caseMS, float64(time.Since(caseStart).Nanoseconds())/1e6)
	}
	tr.end(p.root)
	p.seconds = time.Since(start).Seconds()
	p.rssMB = peakRSSMB()
	cache1 := fsim.TraceCacheStats()
	p.cache = fsim.CacheStats{Hits: cache1.Hits - cache0.Hits, Misses: cache1.Misses - cache0.Misses}
	return p
}

// clearTraceCache empties fsim's good-trace cache and returns its
// counters from before.  Every pass starts with an empty cache: the
// passes repeat the same inputs, and a user generating tests for a
// circuit does not find its traces cached.
func clearTraceCache() fsim.CacheStats {
	st := fsim.TraceCacheStats()
	fsim.SetTraceCacheCap(0)
	fsim.SetTraceCacheCap(st.Cap)
	return st
}

// totals sums the pass's deterministic outputs: what the recorded
// values per seed and the cross-pass checks compare.
type totals struct {
	Covered int `json:"covered"`
	Total   int `json:"total"`
	Kept    int `json:"kept"`
	Vectors int `json:"vectors"`
}

func (p *passOut) totals() totals {
	var t totals
	for _, f := range p.flows {
		if f.res == nil || f.cr == nil {
			continue
		}
		t.Covered += f.res.Covered
		t.Total += f.res.Total
		t.Kept += f.cr.After
		t.Vectors += f.vectors
	}
	return t
}

// checkCompaction re-measures each flow's program before and after
// compaction with the tester-side fault simulation: the verdicts must
// agree fault for fault, and the count must match the one compaction
// argued against.
func checkCompaction(p *passOut, opts satpg.Options, o *outcome) {
	for _, f := range p.flows {
		if f.cr == nil {
			continue
		}
		before, err := satpg.MeasureProgramCoverage(f.c, f.progs, f.model, opts)
		if err != nil {
			o.fail("%s: measuring the program: %v", f.c.Name, err)
			continue
		}
		after, err := satpg.MeasureProgramCoverage(f.c, f.cr.Programs, f.model, opts)
		if err != nil {
			o.fail("%s: measuring the compacted program: %v", f.c.Name, err)
			continue
		}
		if !after.VerdictsEqual(before) || after.Detected != f.cr.Matrix.Detected {
			o.fail("%s/%v: compaction changed coverage: %d before, %d after, %d claimed",
				f.c.Name, f.model, before.Detected, after.Detected, f.cr.Matrix.Detected)
		}
	}
}

// samePass reports each flow of p whose outputs differ from the
// reference pass (same seed, so they must be identical).
func samePass(ref, p *passOut, o *outcome) {
	for i, f := range p.flows {
		if i >= len(ref.flows) || f.res == nil || f.cr == nil || ref.flows[i].res == nil || ref.flows[i].cr == nil {
			continue // already counted as failed
		}
		r := ref.flows[i]
		if f.res.Covered != r.res.Covered || len(f.res.Tests) != len(r.res.Tests) ||
			f.cr.After != r.cr.After || f.vectors != r.vectors {
			o.fail("%s/%v: pass differs from the first: covered %d vs %d, kept %d vs %d",
				f.c.Name, f.model, f.res.Covered, r.res.Covered, f.cr.After, r.cr.After)
		}
	}
}

// replay re-runs, after the timed passes, the public calls behind the
// phases that run inside satpg.Run, so their time can be separated
// from atpg.generate: podem.Generator.Target on exactly the faults the
// deterministic phase targeted, atpg.GenerateTest on exactly the faults
// sent to the exhaustive fallback, and (direct flow) the random-walk
// screen as Run with SkipPodem.  Each replay is recorded as a child of
// the flow's generate span and checked against the Result's counters.
func replay(spec pipelineSpec, p *passOut, opts satpg.Options, tr *tracer, o *outcome) {
	ctx := context.Background()
	for _, f := range p.flows {
		if f.res == nil {
			continue
		}
		universe := satpg.SelectedUniverse(f.c, f.model, opts.Faults)
		if len(universe) != len(f.res.PerFault) {
			o.fail("%s: universe has %d faults, result %d", f.c.Name, len(universe), len(f.res.PerFault))
			continue
		}

		targets := podemTargets(f.c, universe, f.res)
		if len(targets) > 0 {
			pg, err := podem.New(f.c, podem.Options{Lanes: opts.FaultSimLanes, DecisionBudget: opts.PodemBudget, MaxCycles: opts.PodemCycles})
			if err != nil {
				o.fail("%s: podem.New: %v", f.c.Name, err)
				continue
			}
			start := time.Now()
			for _, fi := range targets {
				pg.Target(ctx, universe[fi])
			}
			tr.record("podem", f.genSpan, start, time.Now(), true)
			if st := pg.Stats(); st != f.res.Podem {
				o.fail("%s: podem replay diverged: %+v, run had %+v", f.c.Name, st, f.res.Podem)
			}
		} else if f.res.Podem.Targeted != 0 {
			o.fail("%s: podem targeted %d faults, replay found none", f.c.Name, f.res.Podem.Targeted)
		}

		if spec.cssg {
			var fallback []int
			for fi, fr := range f.res.PerFault {
				if fr.Phase == atpg.PhaseThree || fr.Untestable || fr.Aborted {
					fallback = append(fallback, fi)
				}
			}
			if len(fallback) != f.res.Fallback {
				o.fail("%s: %d fallback verdicts, run counted %d calls", f.c.Name, len(fallback), f.res.Fallback)
			}
			if len(fallback) > 0 {
				start := time.Now()
				mismatch := 0
				for _, fi := range fallback {
					fr := f.res.PerFault[fi]
					_, outcome := atpg.GenerateTest(f.g, fr.Fault, atpg.Options{})
					want := atpg.OutcomeFound
					if fr.Untestable {
						want = atpg.OutcomeUntestable
					} else if fr.Aborted {
						want = atpg.OutcomeAborted
					}
					if outcome != want {
						mismatch++
					}
				}
				tr.record("atpg.fallback", f.genSpan, start, time.Now(), true)
				if mismatch > 0 {
					o.fail("%s: %d fallback replays disagree with the run", f.c.Name, mismatch)
				}
			}
		} else {
			ro := opts
			ro.SkipPodem = true
			clearTraceCache() // as at the start of the pass
			start := time.Now()
			rr, err := satpg.Run(ctx, f.c, f.model, ro)
			tr.record("fsim", f.genSpan, start, time.Now(), true)
			if err != nil {
				o.fail("%s: random-phase replay: %v", f.c.Name, err)
			} else if rr.ByPhase[atpg.PhaseRandom] != f.res.ByPhase[atpg.PhaseRandom] {
				o.fail("%s: random-phase replay found %d, run %d", f.c.Name, rr.ByPhase[atpg.PhaseRandom], f.res.ByPhase[atpg.PhaseRandom])
			}
		}
	}
}

// podemTargets reconstructs, in order, the faults the deterministic
// phase of res targeted: the structural order over the faults the
// random walks left, skipping each fault an earlier PODEM test had
// already detected.
func podemTargets(c *satpg.Circuit, universe []faults.Fault, res *satpg.Result) []int {
	var remaining []int
	nRandom := 0
	for fi, fr := range res.PerFault {
		if fr.Detected && fr.Phase == atpg.PhaseRandom {
			nRandom = max(nRandom, fr.TestIndex+1)
		} else {
			remaining = append(remaining, fi)
		}
	}
	if len(remaining) == 0 || res.Podem.Targeted == 0 {
		return nil
	}
	ft := podem.TargetFeatures{DomDepth: make([]int, len(universe))}
	cl := faults.Collapse(c, universe)
	for _, fi := range remaining {
		ft.DomDepth[fi] = len(cl.DominatorClosure(fi))
	}
	seqs := make([][]uint64, nRandom)
	for i := range seqs {
		seqs[i] = res.Tests[i].Patterns
	}
	ft.NearMiss = podem.NearMisses(c, universe, remaining, seqs)
	byTest := res.DetectionsByTest()
	done := map[int]bool{}
	var targets []int
	for _, fi := range podem.OrderTargets(c, universe, remaining, ft) {
		if done[fi] {
			continue
		}
		targets = append(targets, fi)
		if fr := res.PerFault[fi]; fr.Detected && fr.Phase == atpg.PhasePodem {
			for _, fj := range byTest[fr.TestIndex] {
				done[fj] = true
			}
		}
	}
	return targets
}

// runPipeline measures one pipeline workload.
func runPipeline(cfg *config, spec pipelineSpec, o *outcome) error {
	opts := spec.options(cfg.seed)

	var setupTr *tracer
	if cfg.trace {
		setupTr = newTracer(cfg.runID + "/setup")
	}
	var cases []flowCase
	setupS, err := repeatSetup(cfg, func() error {
		var err error
		cases, err = spec.load(cfg, setupTr)
		return err
	})
	if err != nil {
		return err
	}

	// The first pass warms caches and lazy set-up; it is also the
	// reference every later pass must reproduce, and the one the
	// expensive output checks run on.
	ref := runPass(cfg, spec, cases, opts, nil, o)
	checkCompaction(&ref, opts, o)
	got := ref.totals()
	// Coverage may not drop below the value recorded for the seed;
	// program size is what test_vectors tracks, so a change there is
	// reported, not failed.
	if want, ok := recorded(cfg.workload, cfg.seed, cfg.small); ok {
		if got.Total != want.Total || got.Covered < want.Covered {
			o.fail("seed %d: covered %d of %d faults, recorded %d of %d", cfg.seed, got.Covered, got.Total, want.Covered, want.Total)
		} else if got != want {
			fmt.Printf("# NOTE: seed %d outputs differ from the recorded ones: got %+v, recorded %+v\n", cfg.seed, got, want)
		}
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.runID)
	}
	var untraced, traced []passOut
	deadline := time.Now().Add(cfg.window())
	// A pass starts only if it would end no later than half a pass
	// after the deadline, so a run lasts about the window however long
	// a pass takes.
	seen := []float64{ref.seconds}
	var cal []float64
	for len(untraced) == 0 || (cfg.trace && len(traced) == 0) ||
		time.Until(deadline).Seconds() > median(seen)/2 {
		// In the traced run, passes alternate so the tracing overhead
		// is measured under the same conditions.
		cal = append(cal, calibrate(), calibrate())
		var p passOut
		if cfg.trace && len(untraced) > len(traced) {
			p = runPass(cfg, spec, cases, opts, tr, o)
			traced = append(traced, p)
		} else {
			p = runPass(cfg, spec, cases, opts, nil, o)
			untraced = append(untraced, p)
		}
		samePass(&ref, &p, o)
		seen = append(seen, p.seconds)
	}

	if !cfg.trace {
		// A query of a pipeline workload is one case: a circuit taken
		// from text or specification to validated, compacted programs
		// under each of its fault models.  A pass runs every case once.
		var passS, caseMS, rss []float64
		for _, p := range untraced {
			passS = append(passS, p.seconds)
			caseMS = append(caseMS, p.caseMS...)
			rss = append(rss, p.rssMB)
		}
		o.samples = len(caseMS)
		o.e2e = map[string]metric{
			"setup_s":            {median(setupS), "s"},
			"pipeline_s":         {median(passS), "s"},
			"fault_coverage_pct": {pct(got.Covered, got.Total), "%"},
			"peak_rss_mb":        {median(rss), "MB"},
			"query_p50_ms":       {quantile(caseMS, 0.50), "ms"},
			"query_p95_ms":       {quantile(caseMS, 0.95), "ms"},
			"queries_per_s":      {float64(len(cases)) / median(passS), "1/s"},
		}
		fmt.Printf("# pass wall times (s): %.3g\n", passS)
		fmt.Println(scaleTimes(o.e2e, cal))
		return nil
	}

	last := &traced[len(traced)-1]
	replay(spec, last, opts, tr, o)
	if err := writeSpans(cfg, tr, setupTr); err != nil {
		return err
	}
	self := tr.selfTimes(last.root)
	passS := tr.duration(last.root)
	generate := 0.0
	for _, f := range last.flows {
		if f.genSpan != 0 {
			generate += tr.duration(f.genSpan)
		}
	}
	// The layer self times add up to the traced pass by construction;
	// the check is that nothing large ran outside a layer span and that
	// no replay outgrew the call it was separated from.
	if glue := self["pipeline"]; glue > 0.05*passS {
		o.fail("trace: %.3fs of a %.3fs pass ran outside any layer span", glue, passS)
	}
	// Replays repeat work under other conditions (warm caches, no
	// competing phase), so allow them 10% + 50ms of slack.
	if other := self["atpg.generate"]; other < -(0.1*generate + 0.05) {
		o.fail("trace: replayed phases (%.3fs) exceed atpg.generate (%.3fs)", generate-other, generate)
	}
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if d := sum - passS; d > 1e-6 || d < -1e-6 {
		o.fail("trace: self times sum to %.6fs, traced pass took %.6fs", sum, passS)
	}

	var ts, us []float64
	for _, p := range traced {
		ts = append(ts, p.seconds)
	}
	for _, p := range untraced {
		us = append(us, p.seconds)
	}
	var parse []float64
	for _, s := range setupTr.spans {
		if s.Name == "netlist.parse" {
			parse = append(parse, s.dur())
		}
	}

	var st struct {
		states, edges, random, collateral, fallback, three int
		pd                                                 podem.Stats
		fs                                                 fsim.Stats
		before, after, trials                              int
	}
	for _, f := range last.flows {
		if f.res == nil {
			continue
		}
		if f.g != nil {
			st.states += f.g.Stats.NumStates
			st.edges += f.g.Stats.NumEdges
			st.trials += validateTrials * (len(f.res.Tests) + f.res.Covered)
		}
		st.random += f.res.ByPhase[atpg.PhaseRandom]
		st.collateral += f.res.ByPhase[atpg.PhaseSim]
		st.fallback += f.res.Fallback
		st.three += f.res.ByPhase[atpg.PhaseThree]
		st.pd.Add(f.res.Podem)
		addFsim(&st.fs, f.res.FaultSim)
		if f.cr != nil {
			addFsim(&st.fs, f.cr.Matrix.Stats)
			st.before += f.cr.Before
			st.after += f.cr.After
		}
	}
	// core.states/edges count every circuit once, not once per model.
	if spec.cssg {
		st.states /= 2
		st.edges /= 2
	}
	l := zeroLayers()
	l["netlist.parse_s"] = metric{median(parse), "s"}
	l["core.build_s"] = metric{self["core.build"], "s"}
	l["core.states"] = metric{float64(st.states), "count"}
	l["core.edges"] = metric{float64(st.edges), "count"}
	l["atpg.generate_s"] = metric{generate, "s"}
	l["atpg.random_found"] = metric{float64(st.random), "count"}
	l["atpg.collateral_found"] = metric{float64(st.collateral), "count"}
	l["atpg.fallback_calls"] = metric{float64(st.fallback), "count"}
	l["atpg.fallback_s"] = metric{self["atpg.fallback"], "s"}
	l["atpg.fallback_found_ratio"] = metric{ratio(st.three, st.fallback), "ratio"}
	l["atpg.other_s"] = metric{self["atpg.generate"], "s"}
	l["podem.s"] = metric{self["podem"], "s"}
	l["podem.targeted"] = metric{float64(st.pd.Targeted), "count"}
	l["podem.found"] = metric{float64(st.pd.Found), "count"}
	l["podem.found_per_targeted"] = metric{ratio(st.pd.Found, st.pd.Targeted), "ratio"}
	l["podem.decisions"] = metric{float64(st.pd.Decisions), "count"}
	l["podem.backtracks"] = metric{float64(st.pd.Backtracks), "count"}
	l["podem.settles"] = metric{float64(st.pd.Settles), "count"}
	l["fsim.s"] = metric{self["fsim"], "s"}
	l["fsim.patterns"] = metric{float64(st.fs.Patterns), "count"}
	l["fsim.gate_evals"] = metric{float64(st.fs.GateEvals), "count"}
	l["fsim.evals_per_pattern"] = metric{st.fs.EvalsPerPattern(), "count"}
	l["fsim.trace_cache_hit_ratio"] = metric{last.cache.HitRate(), "ratio"}
	l["compact.s"] = metric{self["compact"], "s"}
	l["compact.tests_before"] = metric{float64(st.before), "count"}
	l["compact.tests_after"] = metric{float64(st.after), "count"}
	l["test_vectors"] = metric{float64(got.Vectors), "count"}
	l["tester.validate_s"] = metric{self["tester.validate"], "s"}
	l["tester.trials"] = metric{float64(st.trials), "count"}
	l["atpg.verify_direct_s"] = metric{self["atpg.verify_direct"], "s"}
	l["trace.glue_s"] = metric{self["pipeline"], "s"}
	l["trace.pipeline_s"] = metric{passS, "s"}
	l["trace.overhead_s"] = metric{median(ts) - median(us), "s"}
	o.layer = l
	return nil
}

func addFsim(dst *fsim.Stats, s fsim.Stats) {
	dst.Patterns += s.Patterns
	dst.GateEvals += s.GateEvals
	dst.CacheHits += s.CacheHits
	dst.CacheMisses += s.CacheMisses
}
