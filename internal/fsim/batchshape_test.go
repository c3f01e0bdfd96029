package fsim

// Batch-shape differential coverage against scalar replays: the
// cone-limited engine must report exactly what the scalar reference
// machine (sim.Machine with the fault injected) computes sequence by
// sequence, in the batch shapes TestDifferentialAgainstScalarTernary
// leaves out — ragged lanes under CheckReset at every lane width and
// across batch boundaries, and Expected-declared batches with fault
// dropping (the ATPG random phase's shape), where first-detection
// attribution (lane and cycle) is compared too.

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/sim"
)

// injected builds the scalar machine for a fault by evaluation-time
// injection, the reference the override masks must reproduce.
func injected(c *netlist.Circuit) func(faults.Fault) sim.Machine {
	return func(f faults.Fault) sim.Machine { return sim.Machine{C: c, Fault: &f} }
}

func TestRaggedBatchesAgainstScalar(t *testing.T) {
	const seeds, nseq, cycles = 25, 80, 6
	tried := 0
	for seed := int64(1); tried < seeds && seed < 20*seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			continue
		}
		tried++
		m := c.NumInputs()
		seqs := make([][]uint64, nseq)
		for l := range seqs {
			n := cycles
			if l%7 == 0 {
				n = cycles / 2 // ragged lanes must stay masked
			}
			seq := make([]uint64, n)
			for tc := range seq {
				seq[tc] = rng.Uint64() & (1<<uint(m) - 1)
			}
			seqs[l] = seq
		}
		universe := append(faults.OutputUniverse(c), faults.InputUniverse(c)...)
		want := scalarMatrix(c, universe, seqs, injected(c))

		for _, lanes := range []int{64, 128, 256} {
			s, err := New(c, universe, Options{
				Workers: 2, Lanes: lanes, NoDrop: true, CheckReset: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			err = s.SimulateSequences(seqs, nil, nil, func(base int, br *BatchResult) {
				for fi := range universe {
					for l := 0; base+l < nseq && l < lanes; l++ {
						if br.Lanes[fi].Has(l) != want[fi][base+l] {
							t.Fatalf("seed %d lanes %d fault %s: sequence %d detection %v, scalar %v",
								seed, lanes, universe[fi].Describe(c), base+l, br.Lanes[fi].Has(l), want[fi][base+l])
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.GateEvals <= 0 {
				t.Fatalf("seed %d lanes %d: gate evals not counted (%d)", seed, lanes, st.GateEvals)
			}
		}
	}
	if tried == 0 {
		t.Fatal("no random circuit generated; ragged-batch parity exercised nothing")
	}
	t.Logf("ragged-batch parity on %d random circuits", tried)
}

// With dropping on and Expected-declared batches, the detections —
// fault, first detecting batch lane and cycle — must be the scalar
// replay's, batch by batch, and a fault detected in one batch must
// not be reported again in a later one.
func TestExpectedAndDroppingAgainstScalar(t *testing.T) {
	const seeds, nseq, cycles = 15, 100, 5 // two 64-lane batches
	const lanes = 64
	tried := 0
	for seed := int64(50); tried < seeds && seed < 50+20*seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			continue
		}
		tried++
		seqs := randSeqs(rng, c.NumInputs(), nseq, cycles)
		universe := append(faults.OutputUniverse(c), faults.InputUniverse(c)...)

		// Expected responses from the scalar good machine (a Φ output is
		// declared 0), so detection is judged against declared vectors.
		good := sim.Machine{C: c}
		expected := make([][]uint64, nseq)
		for l, seq := range seqs {
			st := good.InitState()
			expected[l] = make([]uint64, cycles)
			for tc, p := range seq {
				st = good.Step(st, p)
				for j, v := range good.Outputs(st) {
					if v == logic.One {
						expected[l][tc] |= 1 << uint(j)
					}
				}
			}
		}

		// Scalar replay: per fault, the detecting (sequence, cycle)
		// pairs against the declared responses.
		hit := make([][][]bool, len(universe)) // [fault][seq][cycle]
		for fi, f := range universe {
			fm := sim.Machine{C: c, Fault: &f}
			hit[fi] = make([][]bool, nseq)
			for l, seq := range seqs {
				hit[fi][l] = make([]bool, cycles)
				st := fm.InitState()
				for tc, p := range seq {
					st = fm.Step(st, p)
					hit[fi][l][tc] = declaredDetects(fm.Outputs(st), expected[l][tc])
				}
			}
		}
		var want [][]Detection
		dropped := make([]bool, len(universe))
		for base := 0; base < nseq; base += lanes {
			var batch []Detection
			for fi := range universe {
				if dropped[fi] {
					continue
				}
			first:
				for tc := 0; tc < cycles; tc++ {
					for l := base; l < min(base+lanes, nseq); l++ {
						if hit[fi][l][tc] {
							batch = append(batch, Detection{Fault: fi, Lane: l - base, Cycle: tc})
							dropped[fi] = true
							break first
						}
					}
				}
			}
			want = append(want, batch)
		}

		s, err := New(c, universe, Options{Lanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		var got [][]Detection
		err = s.SimulateSequences(seqs, expected, nil, func(base int, br *BatchResult) {
			got = append(got, append([]Detection(nil), br.Detections...))
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d batches, want %d", seed, len(got), len(want))
		}
		for bi := range want {
			if len(got[bi]) != len(want[bi]) {
				t.Fatalf("seed %d batch %d: %d detections, scalar %d", seed, bi, len(got[bi]), len(want[bi]))
			}
			for i := range want[bi] {
				if got[bi][i] != want[bi][i] {
					t.Fatalf("seed %d batch %d: detection %d is %+v, scalar %+v", seed, bi, i, got[bi][i], want[bi][i])
				}
			}
		}
		for fi := range universe {
			if s.Detected(fi) != dropped[fi] {
				t.Fatalf("seed %d fault %s: detected=%v, scalar %v",
					seed, universe[fi].Describe(c), s.Detected(fi), dropped[fi])
			}
		}
	}
	if tried == 0 {
		t.Fatal("no random circuit generated")
	}
	t.Logf("expected/dropping parity on %d random circuits", tried)
}

// declaredDetects mirrors the engine's detection rule against declared
// responses: some output definite in the faulty machine and opposite
// to its declared bit.
func declaredDetects(out logic.Vec, declared uint64) bool {
	for j, v := range out {
		if v.IsDefinite() && (v == logic.One) != (declared>>uint(j)&1 == 1) {
			return true
		}
	}
	return false
}
