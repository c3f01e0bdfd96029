package lanevec

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// testVecOps drives the whole Vec surface for one width against a
// reference bool-slice bitset.
func testVecOps[V Vec[V]](t *testing.T) {
	var zero V
	size := zero.Size()
	if size%64 != 0 || len(zero.Words())*64 != size {
		t.Fatalf("Size %d disagrees with Words length %d", size, len(zero.Words()))
	}
	rng := rand.New(rand.NewSource(int64(size)))

	randVec := func() (V, []bool) {
		v := zero
		ref := make([]bool, size)
		for l := 0; l < size; l++ {
			if rng.Intn(2) == 1 {
				v = v.WithBit(l)
				ref[l] = true
			}
		}
		return v, ref
	}
	check := func(name string, v V, ref []bool) {
		t.Helper()
		ones, first := 0, size
		for l := 0; l < size; l++ {
			if v.Has(l) != ref[l] {
				t.Fatalf("%s: lane %d: got %v want %v", name, l, v.Has(l), ref[l])
			}
			if ref[l] {
				ones++
				if first == size {
					first = l
				}
			}
		}
		if v.OnesCount() != ones {
			t.Fatalf("%s: OnesCount %d want %d", name, v.OnesCount(), ones)
		}
		if v.TrailingZeros() != first {
			t.Fatalf("%s: TrailingZeros %d want %d", name, v.TrailingZeros(), first)
		}
		if v.IsZero() != (ones == 0) {
			t.Fatalf("%s: IsZero %v with %d ones", name, v.IsZero(), ones)
		}
		words := v.Words()
		for l := 0; l < size; l++ {
			if words[l>>6]>>uint(l&63)&1 == 1 != ref[l] {
				t.Fatalf("%s: Words disagrees at lane %d", name, l)
			}
		}
	}

	for trial := 0; trial < 50; trial++ {
		a, ra := randVec()
		b, rb := randVec()
		and, or, andNot := make([]bool, size), make([]bool, size), make([]bool, size)
		for l := 0; l < size; l++ {
			and[l] = ra[l] && rb[l]
			or[l] = ra[l] || rb[l]
			andNot[l] = ra[l] && !rb[l]
		}
		check("and", a.And(b), and)
		check("or", a.Or(b), or)
		check("andnot", a.AndNot(b), andNot)
		if a.Eq(b) {
			for l := 0; l < size; l++ {
				if ra[l] != rb[l] {
					t.Fatal("Eq true on unequal vectors")
				}
			}
		}
		if !a.Eq(a) {
			t.Fatal("Eq false on itself")
		}
	}

	for _, n := range []int{0, 1, 63, 64, 65, size - 1, size} {
		if n > size {
			continue
		}
		m := zero.FirstN(n)
		if m.OnesCount() != n {
			t.Fatalf("FirstN(%d): %d ones", n, m.OnesCount())
		}
		if n > 0 && !m.Has(n-1) {
			t.Fatalf("FirstN(%d): lane %d missing", n, n-1)
		}
		if n < size && m.Has(n) {
			t.Fatalf("FirstN(%d): lane %d set", n, n)
		}
	}
	if zero.TrailingZeros() != size {
		t.Fatalf("zero TrailingZeros = %d want %d", zero.TrailingZeros(), size)
	}
}

func TestVecOpsV1(t *testing.T) { testVecOps[V1](t) }
func TestVecOpsV2(t *testing.T) { testVecOps[V2](t) }
func TestVecOpsV4(t *testing.T) { testVecOps[V4](t) }

const chainSrc = `
circuit chain
input A
output y
gate n1 NOT A
gate y NOT n1
init A=0 n1=1 y=0
`

func chain(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseString(chainSrc, "chain.ckt")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// applyRails drives the primary-input rails with per-lane values and
// settles: one synchronous test cycle for all lanes at once.
func applyRails[V Vec[V]](e *Engine[V], rails []V) {
	for i := 0; i < e.c.NumInputs(); i++ {
		w := rails[i].And(e.all)
		e.p1[i], e.p0[i] = w, e.all.AndNot(w)
	}
	e.Settle()
}

// testEngineLanes checks, for one width, that lanes evolve
// independently and that overrides inject stuck-at behaviour only in
// their masked lanes.
func testEngineLanes[V Vec[V]](t *testing.T) {
	c := chain(t)
	var zero V
	e := NewEngine[V](c)
	size := zero.Size()
	e.SetAll(zero.FirstN(size))
	e.Reset()

	// Drive A=1 in odd lanes, A=0 in even lanes.
	var odd V
	for l := 1; l < size; l += 2 {
		odd = odd.WithBit(l)
	}
	applyRails(e, []V{odd})
	yID, _ := c.SignalID("y")
	d1, d0 := e.Definite(yID)
	if !d1.Eq(odd) || !d0.Eq(e.All().AndNot(odd)) {
		t.Fatalf("lane independence broken: d1=%v d0=%v", d1.Words(), d0.Words())
	}
	for _, l := range []int{0, 1, size - 2, size - 1} {
		st := e.LaneState(l)
		want := logic.Zero
		if l%2 == 1 {
			want = logic.One
		}
		if st[yID] != want {
			t.Fatalf("lane %d: y=%s want %s", l, st[yID], want)
		}
	}

	// Output override: stick y at 0 in the last lane only.
	last := zero.WithBit(size - 1)
	e.ClearOverrides()
	e.OrOutOverride(c.GateOf(yID), zero, last)
	applyRails(e, []V{e.All()}) // A=1 everywhere: good y=1
	d1, _ = e.Definite(yID)
	if d1.Has(size-1) || !d1.Has(0) {
		t.Fatalf("output override leaked: d1=%v", d1.Words())
	}

	// Pin override: n1's input pin perceives 0 in lane 0 → y=0 there.
	e.ClearOverrides()
	n1ID, _ := c.SignalID("n1")
	e.AddPinOverride(c.GateOf(n1ID), 0, zero.WithBit(0), false)
	applyRails(e, []V{e.All()})
	d1, _ = e.Definite(yID)
	if d1.Has(0) || !d1.Has(1) {
		t.Fatalf("pin override wrong: d1=%v", d1.Words())
	}

	// Directional override, slow-to-rise: y (= A after the double
	// inversion, reset 0) must never rise in the masked lane, and must
	// keep tracking A everywhere else.
	e.ClearOverrides()
	e.OrDirOverride(c.GateOf(yID), last, zero)
	e.Reset()
	applyRails(e, []V{e.All()}) // A=1: good y rises
	d1, d0 = e.Definite(yID)
	if d1.Has(size-1) || !d0.Has(size-1) || !d1.Has(0) {
		t.Fatalf("slow-to-rise leaked: d1=%v d0=%v", d1.Words(), d0.Words())
	}

	// Slow-to-fall: after rising with the good lanes, y must stay 1 in
	// the masked lane when A drops.
	e.ClearOverrides()
	e.OrDirOverride(c.GateOf(yID), zero, last)
	e.Reset()
	applyRails(e, []V{e.All()}) // rise everywhere (rising is allowed)
	var none V
	applyRails(e, []V{none}) // A=0: good y falls
	d1, d0 = e.Definite(yID)
	if !d1.Has(size-1) || d0.Has(size-1) || d1.Has(0) {
		t.Fatalf("slow-to-fall leaked: d1=%v d0=%v", d1.Words(), d0.Words())
	}

	// ClearOverrides restores the good machine.
	e.ClearOverrides()
	applyRails(e, []V{e.All()})
	d1, _ = e.Definite(yID)
	if !d1.Eq(e.All()) {
		t.Fatalf("overrides not cleared: d1=%v", d1.Words())
	}
}

func TestEngineLanesV1(t *testing.T) { testEngineLanes[V1](t) }
func TestEngineLanesV2(t *testing.T) { testEngineLanes[V2](t) }
func TestEngineLanesV4(t *testing.T) { testEngineLanes[V4](t) }
