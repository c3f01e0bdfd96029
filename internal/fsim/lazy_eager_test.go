package fsim

// Lazy-vs-eager seeding differential suite: the lazily-seeded
// cone-limited event engine (support-only state loads, marked rewinds,
// explicit driver seeds, cone-restricted detection) must be observably
// identical to the eager fallback (full state loads, every cone gate
// enqueued per phase, all outputs compared).  The comparison runs the
// full batch surface — per-lane masks, detection attribution
// (fault/lane/cycle) and complete detection-matrix rows — across
// multi-word random circuits (65–300 signals), the ISCAS-89 derived
// corpus and every fault selection, and a sample of the matrix rows is
// replayed on the scalar reference machine (sim.Machine).

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/randckt"
)

// compareLazyEager simulates the batch stream with lazy and with eager seeding
// and requires bit-identical results on every surface.
func compareLazyEager(t *testing.T, label string, c *netlist.Circuit, universe []faults.Fault, seqs [][]uint64, lanes int) {
	t.Helper()
	type outcome struct {
		batches [][]LaneMask
		dets    [][]Detection
		det     []bool
	}
	run := func(eager bool) outcome {
		s, err := New(c, universe, Options{
			Lanes: lanes, CheckReset: true,
			eagerSeed: eager,
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var o outcome
		err = s.SimulateSequences(seqs, nil, nil, func(base int, br *BatchResult) {
			cp := make([]LaneMask, len(br.Lanes))
			copy(cp, br.Lanes)
			o.batches = append(o.batches, cp)
			o.dets = append(o.dets, append([]Detection(nil), br.Detections...))
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		o.det = make([]bool, len(universe))
		for fi := range universe {
			o.det[fi] = s.Detected(fi)
		}
		return o
	}
	lazy, eager := run(false), run(true)
	if len(lazy.batches) != len(eager.batches) {
		t.Fatalf("%s: batch counts differ: %d vs %d", label, len(lazy.batches), len(eager.batches))
	}
	for bi := range lazy.batches {
		for fi := range universe {
			if !lazy.batches[bi][fi].Equal(eager.batches[bi][fi]) {
				t.Fatalf("%s batch %d fault %s: lazy lanes %v != eager lanes %v",
					label, bi, universe[fi].Describe(c), lazy.batches[bi][fi], eager.batches[bi][fi])
			}
		}
		ld, ed := lazy.dets[bi], eager.dets[bi]
		if len(ld) != len(ed) {
			t.Fatalf("%s batch %d: %d vs %d detections", label, bi, len(ld), len(ed))
		}
		for i := range ld {
			if ld[i] != ed[i] {
				t.Fatalf("%s batch %d: detection %d differs: lazy %+v, eager %+v",
					label, bi, i, ld[i], ed[i])
			}
		}
	}
	for fi := range universe {
		if lazy.det[fi] != eager.det[fi] {
			t.Fatalf("%s fault %s: lazy det=%v, eager det=%v",
				label, universe[fi].Describe(c), lazy.det[fi], eager.det[fi])
		}
	}
}

// scalarSamples is how many evenly spaced faults per universe
// compareMatrices replays on the scalar machine: enough to catch a
// wrong row anywhere in the universe, few enough that s953's scalar
// replay stays a small share of the suite.
const scalarSamples = 12

// compareMatrices requires identical full detection-matrix rows from
// lazy and eager seeding, and lazy rows equal to the scalar replay on
// a sample of the universe.
func compareMatrices(t *testing.T, label string, c *netlist.Circuit, universe []faults.Fault, seqs [][]uint64, lanes int) {
	t.Helper()
	matrix := func(eager bool) []LaneMask {
		rows, _, err := DetectionMatrix(c, universe, seqs, nil, nil, Options{
			Lanes: lanes, CheckReset: true, eagerSeed: eager,
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return rows
	}
	lazy, eager := matrix(false), matrix(true)
	for fi := range universe {
		if !lazy[fi].Equal(eager[fi]) {
			t.Fatalf("%s fault %s: lazy row %v != eager row %v",
				label, universe[fi].Describe(c), lazy[fi], eager[fi])
		}
	}
	stride := max(1, len(universe)/scalarSamples)
	var sample []int
	var sampled []faults.Fault
	for fi := 0; fi < len(universe); fi += stride {
		sample = append(sample, fi)
		sampled = append(sampled, universe[fi])
	}
	want := scalarMatrix(c, sampled, seqs, injected(c))
	for k, fi := range sample {
		for l := range seqs {
			if lazy[fi].Has(l) != want[k][l] {
				t.Fatalf("%s fault %s: sequence %d detection %v, scalar %v",
					label, universe[fi].Describe(c), l, lazy[fi].Has(l), want[k][l])
			}
		}
	}
}

func seqsFor(rng *rand.Rand, c *netlist.Circuit, nseq, cycles int) [][]uint64 {
	m := c.NumInputs()
	seqs := make([][]uint64, nseq)
	for l := range seqs {
		n := cycles
		if l%5 == 0 {
			n = cycles/2 + 1 // ragged lanes must stay masked identically
		}
		seq := make([]uint64, n)
		for tc := range seq {
			seq[tc] = rng.Uint64() & (1<<uint(m) - 1)
		}
		seqs[l] = seq
	}
	return seqs
}

var faultSelections = []struct {
	name string
	sel  faults.Selection
}{
	{"sa", faults.SelStuckAt},
	{"transition", faults.SelTransition},
	{"both", faults.SelBoth},
}

// TestLazyVsEagerRandckt sweeps seeded random multi-word circuits from
// just past the one-word ceiling up to ~300 signals.
func TestLazyVsEagerRandckt(t *testing.T) {
	bands := []struct {
		min, max int // gate counts; signals = 2·inputs + gates
	}{
		{61, 90},   // 65–96 signals
		{120, 170}, // 124–176 signals
		{230, 290}, // 234–296 signals
	}
	per := 3
	if testing.Short() {
		per = 1
	}
	for bi, band := range bands {
		rng := rand.New(rand.NewSource(int64(1000 + bi)))
		tried := 0
		for tried < per {
			c, ok := randckt.New(rng, randckt.Config{MinGates: band.min, MaxGates: band.max})
			if !ok {
				continue
			}
			if c.NumSignals() <= 64 || c.NumSignals() > 300 {
				t.Fatalf("band %d: circuit %s has %d signals, outside the multi-word target band",
					bi, c.Name, c.NumSignals())
			}
			tried++
			seqs := seqsFor(rng, c, 20, 6)
			for _, fs := range faultSelections {
				universe := faults.SelectUniverse(c, faults.InputSA, fs.sel)
				label := c.Name + "/" + fs.name
				for _, lanes := range []int{64, 256} {
					compareLazyEager(t, label, c, universe, seqs, lanes)
				}
				compareMatrices(t, label, c, universe, seqs, 64)
			}
		}
	}
}

// TestLazyVsEagerISCAS runs the corpus circuits.
func TestLazyVsEagerISCAS(t *testing.T) {
	shapes := map[string]struct{ nseq, cycles int }{
		"s27":  {32, 8},
		"s349": {24, 8},
		"s953": {16, 6},
	}
	if testing.Short() {
		shapes = map[string]struct{ nseq, cycles int }{"s349": {8, 5}}
	}
	for _, name := range []string{"s27", "s349", "s953"} {
		shape, ok := shapes[name]
		if !ok {
			continue
		}
		f, err := os.Open(filepath.Join("..", "..", "examples", "iscas", name+".ckt"))
		if err != nil {
			t.Fatalf("%v (regenerate with `go run ./examples/iscas`)", err)
		}
		c, err := netlist.Parse(f, name)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		seqs := seqsFor(rng, c, shape.nseq, shape.cycles)
		for _, fs := range faultSelections {
			universe := faults.SelectUniverse(c, faults.InputSA, fs.sel)
			label := name + "/" + fs.name
			compareLazyEager(t, label, c, universe, seqs, 64)
			compareMatrices(t, label, c, universe, seqs, 64)
		}
	}
}
