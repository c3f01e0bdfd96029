package satpg

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/randckt"
	"repro/internal/sim"
)

// The multi-word differential suite: circuits past the 64-signal
// single-word ceiling must behave bit-identically to the scalar ternary
// oracle at every lane width, and a ≤64-signal circuit pushed through
// the multi-word paths (via SetMinStateWords) must reproduce its
// single-word verdicts exactly.

func loadCorpus(t *testing.T, name string) *Circuit {
	t.Helper()
	path := filepath.Join("examples", "iscas", name)
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("corpus %s: %v (regenerate with `go run ./examples/iscas`)", name, err)
	}
	defer f.Close()
	c, err := ParseCircuit(f, path)
	if err != nil {
		t.Fatalf("corpus %s: %v", name, err)
	}
	return c
}

// TestISCASCorpusLoads pins the committed corpus: the files must parse,
// validate, and land on their intended packed-state word counts.
func TestISCASCorpusLoads(t *testing.T) {
	want := []struct {
		file           string
		signals, words int
	}{
		{"s27.ckt", 29, 1},
		{"s349.ckt", 363, 6},
		{"s953.ckt", 989, 16},
	}
	for _, w := range want {
		c := loadCorpus(t, w.file)
		if c.NumSignals() != w.signals || c.StateWords() != w.words {
			t.Errorf("%s: %d signals in %d words, want %d in %d",
				w.file, c.NumSignals(), c.StateWords(), w.signals, w.words)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", w.file, err)
		}
	}
}

// scalarOracleDetects replays the whole test set (and the reset
// observation) against one fault on the scalar ternary machine — the
// size-agnostic ground truth the batched engines must reproduce.
func scalarOracleDetects(c *Circuit, f Fault, tests []Test) bool {
	goodReset := sim.Machine{C: c}.InitState()
	badReset := sim.Machine{C: c, Fault: &f}.InitState()
	for _, s := range c.Outputs {
		g, b := goodReset[s], badReset[s]
		if g.IsDefinite() && b.IsDefinite() && g != b {
			return true
		}
	}
	for _, tst := range tests {
		if VerifyTestDirect(c, f, tst) {
			return true
		}
	}
	return false
}

// corpusScalarStride samples the scalar-oracle check on the ISCAS
// corpus: a full replay of a test set costs about 90 ms per fault on
// s953, so one fault in 64 is checked.
const corpusScalarStride = 64

// crossWidthCompare measures the tests at every lane width in widths
// and requires per-fault verdicts (detected, first test, first cycle)
// identical to the first width's; every stride-th fault's verdict must
// also match a full replay on the scalar oracle.
func crossWidthCompare(t *testing.T, c *Circuit, model FaultModel, tests []Test, opts Options, widths []int, stride int) {
	t.Helper()
	var ref *CoverageReport
	for _, lanes := range widths {
		opts.FaultSimLanes = lanes
		rep, err := FaultSimBatch(c, model, tests, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = rep
			continue
		}
		for fi := range rep.PerFault {
			a, b := ref.PerFault[fi], rep.PerFault[fi]
			if a.Detected != b.Detected || a.TestIndex != b.TestIndex || a.Cycle != b.Cycle {
				t.Errorf("%s %v lanes=%d fault %s: {det=%v test=%d cyc=%d}, %d lanes {det=%v test=%d cyc=%d}",
					c.Name, model, lanes, b.Fault.Describe(c), b.Detected, b.TestIndex, b.Cycle,
					widths[0], a.Detected, a.TestIndex, a.Cycle)
			}
		}
	}
	for fi := 0; fi < len(ref.PerFault); fi += stride {
		fc := ref.PerFault[fi]
		if got := scalarOracleDetects(c, fc.Fault, tests); got != fc.Detected {
			t.Errorf("%s %v fault %s: fsim det=%v, scalar oracle det=%v",
				c.Name, model, fc.Fault.Describe(c), fc.Detected, got)
		}
	}
}

// TestDirectFlowOracleOnCorpus runs the direct flow on the corpus and
// checks (a) every kept test and credited detection replays on the
// scalar oracle, (b) every lane width agrees verdict for verdict on the
// generated tests, and a sample of those verdicts matches the scalar
// oracle.
func TestDirectFlowOracleOnCorpus(t *testing.T) {
	files := []string{"s27.ckt", "s349.ckt"}
	if !testing.Short() {
		files = append(files, "s953.ckt")
	}
	for _, file := range files {
		c := loadCorpus(t, file)
		opts := Options{Seed: 1, RandomSequences: 48, RandomLength: 16}
		if file == "s953.ckt" {
			opts.RandomSequences, opts.RandomLength = 24, 12
		}
		res, err := GenerateDirect(c, InputStuckAt, opts)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if res.Covered == 0 || len(res.Tests) == 0 {
			t.Fatalf("%s: direct flow produced no detections (%d tests)", file, len(res.Tests))
		}
		if err := ValidateDirect(c, res); err != nil {
			t.Errorf("%s: %v", file, err)
		}
		crossWidthCompare(t, c, InputStuckAt, res.Tests, Options{}, []int{64, 128, 256}, corpusScalarStride)
	}
}

// TestMultiWordEnginesMatchScalarOracle cross-validates the multi-word
// engine on random feedback circuits at 65–300 signals: every lane
// width must agree with the others on every fault, and with the scalar
// ternary machine on a sampled subset.
func TestMultiWordEnginesMatchScalarOracle(t *testing.T) {
	type band struct{ minGates, maxGates int }
	bands := []band{{70, 90}, {120, 150}, {260, 290}}
	if testing.Short() {
		bands = bands[:1]
	}
	for bi, b := range bands {
		rng := rand.New(rand.NewSource(int64(100 + bi)))
		c, ok := randckt.New(rng, randckt.Config{
			MinInputs: 4, MaxInputs: 6,
			MinGates: b.minGates, MaxGates: b.maxGates,
		})
		if !ok {
			t.Fatalf("band %d: no stable random circuit", bi)
		}
		if c.NumSignals() <= MaxExplicitSignals {
			t.Fatalf("band %d: circuit %s has only %d signals", bi, c.Name, c.NumSignals())
		}
		res, err := GenerateDirect(c, InputStuckAt, Options{Seed: 7, RandomSequences: 32, RandomLength: 12})
		if err != nil {
			t.Fatalf("band %d (%s): %v", bi, c.Name, err)
		}
		t.Logf("band %d: %s, %d signals (%d words), %d tests, cov %d/%d",
			bi, c.Name, c.NumSignals(), c.StateWords(), len(res.Tests), res.Covered, res.Total)
		// Scalar spot-check: every 7th fault's verdict must match a full
		// replay on the ternary machine.
		crossWidthCompare(t, c, InputStuckAt, res.Tests, Options{}, []int{64, 128, 256}, 7)
	}
}

// TestSingleVsMultiWordBitEquality pushes the Table-1 suite through the
// multi-word engine paths (SetMinStateWords forces two state words on
// circuits that fit one) and requires verdicts bit-identical to the
// single-word fast path, for both fault models; a sample of the
// verdicts must also match the scalar oracle.
func TestSingleVsMultiWordBitEquality(t *testing.T) {
	suite := SpeedIndependentSuite()
	if testing.Short() {
		suite = suite[:3]
	}
	for _, bm := range suite {
		_, res, err := GenerateForCircuit(bm.Circuit, InputStuckAt, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		forced := bm.Circuit.Clone()
		forced.SetMinStateWords(2)
		for _, model := range []FaultModel{OutputStuckAt, InputStuckAt} {
			one, err := FaultSimBatch(bm.Circuit, model, res.Tests, Options{})
			if err != nil {
				t.Fatalf("%s: %v", bm.Name, err)
			}
			two, err := FaultSimBatch(forced, model, res.Tests, Options{})
			if err != nil {
				t.Fatalf("%s forced: %v", bm.Name, err)
			}
			for fi := range one.PerFault {
				a, b := one.PerFault[fi], two.PerFault[fi]
				if a.Detected != b.Detected || a.TestIndex != b.TestIndex || a.Cycle != b.Cycle {
					t.Errorf("%s %v fault %s: 1-word {det=%v test=%d cyc=%d} 2-word {det=%v test=%d cyc=%d}",
						bm.Name, model, a.Fault.Describe(bm.Circuit),
						a.Detected, a.TestIndex, a.Cycle, b.Detected, b.TestIndex, b.Cycle)
				}
			}
			for fi := 0; fi < len(two.PerFault); fi += suiteScalarStride {
				fc := two.PerFault[fi]
				if got := scalarOracleDetects(forced, fc.Fault, res.Tests); got != fc.Detected {
					t.Errorf("%s %v fault %s: 2-word det=%v, scalar oracle det=%v",
						bm.Name, model, fc.Fault.Describe(bm.Circuit), fc.Detected, got)
				}
			}
		}
		// The direct flow must be equally indifferent to the word count.
		d1, err := GenerateDirect(bm.Circuit, InputStuckAt, Options{Seed: 3, RandomSequences: 16, RandomLength: 8})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		d2, err := GenerateDirect(forced, InputStuckAt, Options{Seed: 3, RandomSequences: 16, RandomLength: 8})
		if err != nil {
			t.Fatalf("%s forced: %v", bm.Name, err)
		}
		if d1.Covered != d2.Covered || len(d1.Tests) != len(d2.Tests) {
			t.Fatalf("%s: direct flow diverged across word counts: cov %d/%d tests %d vs cov %d/%d tests %d",
				bm.Name, d1.Covered, d1.Total, len(d1.Tests), d2.Covered, d2.Total, len(d2.Tests))
		}
		for i := range d1.Tests {
			for j := range d1.Tests[i].Patterns {
				if d1.Tests[i].Patterns[j] != d2.Tests[i].Patterns[j] ||
					d1.Tests[i].Expected[j] != d2.Tests[i].Expected[j] {
					t.Fatalf("%s: direct test %d cycle %d differs across word counts", bm.Name, i, j)
				}
			}
		}
	}
}
