package lanevec

// The hot settling kernels (evalGate, evalGateOv and the event-queue
// drain runEvents) must compile to straight, fully-unrolled word
// operations: Go's generics implementation today routes method calls
// on type parameters through runtime dictionaries and does not inline
// them, which costs ~2.5× on the 64-lane kernels.  So the kernels are
// *generated* — once per width, from the single template below — and
// the generic Engine dispatches to them with one type switch per
// phase run.  The template is the only place the settling semantics
// live; sweep_gen.go is emitted by `go generate`
// (gen.go) and TestGeneratedSweepInSync fails the build if it drifts,
// which replaces the old "changes must be made in both files" comments
// with an automated tripwire.

import (
	"bytes"
	"fmt"
	"go/format"
	"strings"
	"text/template"
)

// sweepWidth describes one kernel instantiation.
type sweepWidth struct {
	Lanes int    // 64, 128, 256
	Type  string // V1, V2, V4
	N     int    // words per vector
}

var sweepWidths = []sweepWidth{
	{Lanes: 64, Type: "V1", N: 1},
	{Lanes: 128, Type: "V2", N: 2},
	{Lanes: 256, Type: "V4", N: 4},
}

// perWord renders f for each word index and joins the pieces.
func perWord(n int, sep string, f func(k int) string) string {
	parts := make([]string, n)
	for k := range parts {
		parts[k] = f(k)
	}
	return strings.Join(parts, sep)
}

var sweepFuncs = template.FuncMap{
	// zero: "w[0]|w[1] == 0" — the vector has no lane bit set.
	"zero": func(w sweepWidth, v string) string {
		return perWord(w.N, "|", func(k int) string { return fmt.Sprintf("%s[%d]", v, k) }) + " == 0"
	},
	// eq: "a[0] == b[0] && a[1] == b[1]".
	"eq": func(w sweepWidth, a, b string) string {
		return perWord(w.N, " && ", func(k int) string { return fmt.Sprintf("%s[%d] == %s[%d]", a, k, b, k) })
	},
	// orAssign: "a[0] |= b[0]; a[1] |= b[1]" (gofmt splits the lines).
	"orAssign": func(w sweepWidth, a, b string) string {
		return perWord(w.N, "; ", func(k int) string { return fmt.Sprintf("%s[%d] |= %s[%d]", a, k, b, k) })
	},
	// andAssign: "a[0] &= b[0]; ...".
	"andAssign": func(w sweepWidth, a, b string) string {
		return perWord(w.N, "; ", func(k int) string { return fmt.Sprintf("%s[%d] &= %s[%d]", a, k, b, k) })
	},
	// andAssignIdx: "w[0] &= p1[sig][0]; ..." — conjoin an indexed
	// vector without naming a temporary.
	"andAssignIdx": func(w sweepWidth, a, slice, idx string) string {
		return perWord(w.N, "; ", func(k int) string {
			return fmt.Sprintf("%s[%d] &= %s[%s][%d]", a, k, slice, idx, k)
		})
	},
	// andNotAssign: "a[0] &^= b[0]; ...".
	"andNotAssign": func(w sweepWidth, a, b string) string {
		return perWord(w.N, "; ", func(k int) string { return fmt.Sprintf("%s[%d] &^= %s[%d]", a, k, b, k) })
	},
	// outOverride: "v[0] = v[0]&^sub[0] | add[0]; ..." — the output
	// stuck-at masks applied to a possibility vector.
	"outOverride": func(w sweepWidth, v, sub, add string) string {
		return perWord(w.N, "; ", func(k int) string {
			return fmt.Sprintf("%s[%d] = %s[%d]&^%s[%d] | %s[%d]", v, k, v, k, sub, k, add, k)
		})
	},
	// diffLit: `V2{(a[0]^b[0]) | (c[0]^d[0]), ...}` — the changed-lane
	// mask between two (p1, p0) vector pairs.
	"diffLit": func(w sweepWidth, a, b, c, d string) string {
		return w.Type + "{" + perWord(w.N, ", ", func(k int) string {
			return fmt.Sprintf("(%s[%d]^%s[%d]) | (%s[%d]^%s[%d])", a, k, b, k, c, k, d, k)
		}) + "}"
	},
	// dirOverride: "v[0] = v[0]&^(block[0]&^prev[0]) | hold[0]&prev[0]; ..."
	// — the directional (transition-fault) masks applied to a
	// possibility vector: in block lanes a possibility the previous
	// output lacked is removed (the blocked transition), in hold lanes
	// the previous output's possibility is retained (the held value of
	// the transition allowed the other way).
	"dirOverride": func(w sweepWidth, v, block, prev, hold string) string {
		return perWord(w.N, "; ", func(k int) string {
			return fmt.Sprintf("%s[%d] = %s[%d]&^(%s[%d]&^%s[%d]) | %s[%d]&%s[%d]",
				v, k, v, k, block, k, prev, k, hold, k, prev, k)
		})
	},
}

// GenerateSweepSource renders the settling kernels for every width and
// returns the gofmt-ed source of sweep_gen.go.
func GenerateSweepSource() ([]byte, error) {
	tmpl, err := template.New("sweep").Funcs(sweepFuncs).Parse(sweepTemplate)
	if err != nil {
		return nil, fmt.Errorf("lanevec: parse sweep template: %w", err)
	}
	var buf bytes.Buffer
	if err := tmpl.Execute(&buf, sweepWidths); err != nil {
		return nil, fmt.Errorf("lanevec: render sweep template: %w", err)
	}
	src, err := format.Source(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("lanevec: gofmt generated sweep: %w", err)
	}
	return src, nil
}

// sweepTemplate is the single implementation of ternary gate
// evaluation and event-driven settling: Eichelberger's algorithm A
// (information-raising) then B (lowering) over lane-vector possibility
// words, with stuck-at faults injected as pin/output override masks
// and transition faults as directional masks.  Every width is this
// text.
const sweepTemplate = `// Code generated by sweepgen.go (go generate); DO NOT EDIT.
//
// One kernel per lane width, all rendered from the sweepTemplate in
// sweepgen.go — edit the template, run ` + "`go generate ./internal/lanevec`" + `,
// and TestGeneratedSweepInSync will hold you to it.

package lanevec

import "repro/internal/netlist"

{{range .}}
// evalGate{{.Lanes}} computes the possibility vectors of gate gi's function
// across all {{.Lanes}} lanes — the pure path for gates with no override
// (runEvents{{.Lanes}} routes overridden gates to evalGateOv{{.Lanes}}), kept
// free of any override bookkeeping so the fault-free bulk of every
// settle pays nothing for fault injection.
func evalGate{{.Lanes}}(e *Engine[{{.Type}}], gi int, p1, p0 []{{.Type}}) (can1, can0 {{.Type}}) {
	g := &e.c.Gates[gi]
	nf := len(g.Fanin)
	n := g.NLocal()
	cube := func(m uint16) {{.Type}} {
		w := e.all
		for j := 0; j < n; j++ {
			if {{zero . "w"}} {
				break
			}
			var sig netlist.SigID
			if j < nf {
				sig = g.Fanin[j]
			} else {
				sig = g.Out // self input of C gates
			}
			if m>>uint(j)&1 == 1 {
				{{andAssignIdx . "w" "p1" "sig"}}
			} else {
				{{andAssignIdx . "w" "p0" "sig"}}
			}
		}
		return w
	}
	for _, m := range g.OnSet {
		cw := cube(m)
		{{orAssign . "can1" "cw"}}
		if {{eq . "can1" "e.all"}} {
			break
		}
	}
	for _, m := range g.OffSet {
		cw := cube(m)
		{{orAssign . "can0" "cw"}}
		if {{eq . "can0" "e.all"}} {
			break
		}
	}
	return can1, can0
}

// evalGateOv{{.Lanes}} is evalGate{{.Lanes}} for gates carrying pin, output or
// directional overrides: each pin's possibility word is patched by the
// override masks before it joins the cube, the output stuck-at masks
// are applied to the result, and the directional (transition-fault)
// masks last — those read the gate's own previous output from p1/p0,
// like the C-gate self input, so a slow-to-rise output can keep only
// the 1-possibility it already had (and may always fall), and dually
// for slow-to-fall.  Each lane carries at most one fault, so the
// override kinds apply to disjoint lanes and their order is free.
func evalGateOv{{.Lanes}}(e *Engine[{{.Type}}], gi int, p1, p0 []{{.Type}}) (can1, can0 {{.Type}}) {
	g := &e.c.Gates[gi]
	nf := len(g.Fanin)
	ov := e.inOv[gi]
	n := g.NLocal()
	cube := func(m uint16) {{.Type}} {
		w := e.all
		for j := 0; j < n; j++ {
			if {{zero . "w"}} {
				break
			}
			bitOne := m>>uint(j)&1 == 1
			var sig netlist.SigID
			if j < nf {
				sig = g.Fanin[j]
			} else {
				sig = g.Out // self input of C gates
			}
			var poss {{.Type}}
			if bitOne {
				poss = p1[sig]
			} else {
				poss = p0[sig]
			}
			for _, o := range ov {
				if o.Pin == j {
					if o.One == bitOne {
						{{orAssign . "poss" "o.Mask"}}
					} else {
						{{andNotAssign . "poss" "o.Mask"}}
					}
				}
			}
			{{andAssign . "w" "poss"}}
		}
		return w
	}
	for _, m := range g.OnSet {
		cw := cube(m)
		{{orAssign . "can1" "cw"}}
		if {{eq . "can1" "e.all"}} {
			break
		}
	}
	for _, m := range g.OffSet {
		cw := cube(m)
		{{orAssign . "can0" "cw"}}
		if {{eq . "can0" "e.all"}} {
			break
		}
	}
	oo := &e.outOv[gi]
	{{outOverride . "can1" "oo.m0" "oo.m1"}}
	{{outOverride . "can0" "oo.m1" "oo.m0"}}
	do := &e.dirOv[gi]
	o1, o0 := p1[g.Out], p0[g.Out]
	{{dirOverride . "can1" "do.fall" "o1" "do.rise"}}
	{{dirOverride . "can0" "do.rise" "o0" "do.fall"}}
	return can1, can0
}

// runEvents{{.Lanes}} drains the levelized event queue: pop the lowest
// pending level, evaluate the gate (pure or override kernel), and
// on any lane change write the output, accumulate the per-lane
// activity mask and enqueue the admitted readers — feedback drops the
// cursor back.  raise selects phase-A (OR into the output) semantics;
// otherwise phase-B (assignment).  Both phases are chaotic iterations
// of a monotone operator, so the drained fixpoint does not depend on
// the evaluation order (see events.go).
func runEvents{{.Lanes}}(e *Engine[{{.Type}}], raise bool) {
	ev := e.ev
	gm := ev.gateMask // multi-word gate admission bitset, hoisted
	guard := ev.guard
	for ev.cursor < len(ev.buckets) {
		b := ev.buckets[ev.cursor]
		n := len(b)
		if n == 0 {
			ev.cursor++
			continue
		}
		gi := b[n-1]
		ev.buckets[ev.cursor] = b[:n-1]
		ev.inQ[gi] = false
		var e1, e0 {{.Type}}
		if e.hasOv[gi] {
			e1, e0 = evalGateOv{{.Lanes}}(e, gi, e.p1, e.p0)
		} else {
			e1, e0 = evalGate{{.Lanes}}(e, gi, e.p1, e.p0)
		}
		e.evals++
		if guard--; guard < 0 {
			panic("lanevec: event settling did not converge")
		}
		out := e.c.Gates[gi].Out
		o1, o0 := e.p1[out], e.p0[out]
		if raise {
			{{orAssign . "e1" "o1"}}
			{{orAssign . "e0" "o0"}}
		}
		d := {{diffLit . "e1" "o1" "e0" "o0"}}
		if {{zero . "d"}} {
			continue
		}
		e.p1[out], e.p0[out] = e1, e0
		{{orAssign . "e.chg[out]" "d"}}
		for _, ri := range ev.topo.Readers[out] {
			if gm[ri>>6]>>uint(ri&63)&1 == 0 || ev.inQ[ri] {
				continue
			}
			ev.inQ[ri] = true
			lv := ev.topo.Level[ri]
			ev.buckets[lv] = append(ev.buckets[lv], ri)
			if lv < ev.cursor {
				ev.cursor = lv
			}
		}
	}
}
{{end}}
`
