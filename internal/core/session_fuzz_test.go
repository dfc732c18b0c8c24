package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lubt/internal/bst"
	"lubt/internal/embed"
	"lubt/internal/geom"
	"lubt/internal/lp"
	"lubt/internal/topology"
)

// sessionOp is one edit or re-solve of a FuzzSessionEdits script.
type sessionOp int

const (
	opRetighten sessionOp = iota // set one sink's window
	opRelax                      // set one sink's window to [0, ∞)
	opReweight                   // set one edge's weight
	opResolve                    // re-solve and check the verdict
)

// sessionStep is one decoded script step: the sink and window of a
// Retighten or relax, or the edge and weight of a Reweight.
type sessionStep struct {
	op     sessionOp
	sink   int
	l, u   float64
	edge   int
	weight float64
}

// decodeSessionCase turns fuzz bytes into an instance, its starting
// windows and weights, and an edit script. Bytes past the end read as 0,
// so every input decodes; ok is false only when the topology cannot be
// built. The layout, in order:
//
//   - m = 1 + b%12 sinks;
//   - a grid byte (bit 0: coordinates on the integer grid 0…7, which
//     makes ties; else a byte plus a byte/256);
//   - a source byte (bit 0: a fixed source), then the source's x, y;
//   - each sink's x, y;
//   - a topology byte: 0 balanced, 1 skew-guided (bst.Route; a byte picks
//     the skew bound 0, R/2, R or ∞), 2 topology.RandomBinary (a byte
//     seeds it), 3 the chain 0 → 1 → … → m of Fig. 1, whose non-leaf
//     sinks can make windows infeasible;
//   - each sink's window (see window), raised where needed to the
//     paper's floor (Eq. 3–4) so that the session starts;
//   - a weights byte (bit 0: one weight byte per edge, weight b/64; else
//     unit weights);
//   - a step count b%17 and the steps: 0 Retighten (sink byte, window),
//     1 relax (sink byte), 2 Reweight (edge byte, weight byte), 3 Resolve.
//
// A window is a kind byte — 0 [0, ∞), 1 finite [a, b], 2 [a, ∞), 3
// l = u = a — and its value bytes, each value 3R·b/255: every window lies
// in [0, 3R] or is +∞. With no source and one sink the source is fixed
// at the origin, since a free root needs two sinks to hang from.
func decodeSessionCase(data []byte) (in *Instance, b Bounds, w []float64, script []sessionStep, ok bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return int(c)
	}
	m := 1 + next()%12
	grid := next()&1 == 1
	coord := func() float64 {
		if grid {
			return float64(next() % 8)
		}
		return float64(next()) + float64(next())/256
	}
	var src *geom.Point
	if next()&1 == 1 {
		p := geom.Pt(coord(), coord())
		src = &p
	}
	sinks := make([]geom.Point, m)
	for i := range sinks {
		sinks[i] = geom.Pt(coord(), coord())
	}
	if src == nil && m == 1 {
		src = &geom.Point{}
	}
	r := geom.Diameter(sinks) / 2 // Instance.Radius, before a topology exists
	if src != nil {
		r = 0
		for _, s := range sinks {
			r = max(r, geom.Dist(*src, s))
		}
	}
	var tree *topology.Tree
	var err error
	switch next() % 4 {
	case 0:
		tree, err = topology.Balanced(sinks, src != nil)
	case 1:
		var res *bst.Result
		res, err = bst.Route(sinks, []float64{0, r / 2, r, math.Inf(1)}[next()%4], src)
		if err == nil {
			tree = res.Tree
		}
	case 2:
		tree, err = topology.RandomBinary(rand.New(rand.NewSource(int64(next()))), m, src != nil)
	default:
		parent := make([]int, m+1)
		for i := range parent {
			parent[i] = i - 1
		}
		tree, err = topology.New(parent, m)
	}
	if err != nil {
		return nil, Bounds{}, nil, nil, false
	}
	in = &Instance{Tree: tree, SinkLoc: append([]geom.Point{{}}, sinks...), Source: src}
	window := func() (l, u float64) {
		val := func() float64 { return 3 * r * float64(next()) / 255 }
		switch next() % 4 {
		case 0:
			return 0, math.Inf(1)
		case 1:
			l, u = val(), val()
			return min(l, u), max(l, u)
		case 2:
			return val(), math.Inf(1)
		}
		l = val()
		return l, l
	}
	b = Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
	for i := 1; i <= m; i++ {
		b.L[i], b.U[i] = window()
		floor := r
		if src != nil {
			floor = in.Dist(0, i)
		}
		b.U[i] = max(b.U[i], floor)
		b.L[i] = min(b.L[i], b.U[i])
	}
	n := tree.N()
	w = make([]float64, n)
	weighted := next()&1 == 1
	for k := 1; k < n; k++ {
		w[k] = 1
		if weighted {
			w[k] = float64(next()) / 64
		}
	}
	for range next() % 17 {
		st := sessionStep{op: sessionOp(next() % 4)}
		switch st.op {
		case opRetighten:
			st.sink = 1 + next()%m
			st.l, st.u = window()
		case opRelax:
			st.sink = 1 + next()%m
		case opReweight:
			st.edge = 1 + next()%(n-1)
			st.weight = float64(next()) / 64
		}
		script = append(script, st)
	}
	return in, b, w, script, true
}

// FuzzSessionEdits drives a warm ECO Session through a decoded edit
// script and checks every verdict against the cold oracle
// (coldoracle_test.go), which shares no code with the warm engine, its
// row-generation loop or its separation oracle. A plain Solve of the
// starting windows (the one run with the oracle's window arm), the
// session's first solve and every Resolve must match the cold simplex's
// verdict — the same
// status, the cost within 1e-6·max(1, R) — and every optimum must pass
// Verify and embed (Theorem 4.1). Windows stop at 3R, so ErrStalled is a
// failure. An edit the Session rejects must leave it usable: its windows
// unchanged and the next Resolve checked like any other.
func FuzzSessionEdits(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in, b, w, script, ok := decodeSessionCase(data)
		if !ok {
			return
		}
		tol := 1e-6 * math.Max(1, in.Radius())
		check := func(what string, b Bounds, res *Result, err error) {
			t.Helper()
			if errors.Is(err, ErrStalled) {
				t.Fatalf("%s: %v", what, err)
			}
			o := &coldOracle{in: in, b: b, w: w, tol: tol}
			if cerr := o.certify(res, err, &lp.Simplex{}); cerr != nil {
				t.Fatalf("%s: %v", what, cerr)
			}
			if err != nil {
				return
			}
			if _, perr := embed.Place(in.Tree, in.SinkLoc, in.Source, res.E, nil); perr != nil {
				t.Fatalf("%s: the optimum does not embed: %v", what, perr)
			}
		}
		res, err := Solve(in, b, &Options{Weights: w})
		check("Solve", b, res, err)
		sess, err := NewSession(in, b, &Options{Weights: w})
		if err != nil {
			check("NewSession", b, nil, err)
			return
		}
		check("NewSession", b, sess.Result(), nil)
		for i, st := range script {
			switch st.op {
			case opRetighten, opRelax:
				if st.op == opRelax {
					st.l, st.u = 0, math.Inf(1)
				}
				before := sess.Bounds()
				if err := sess.Retighten(st.sink, st.l, st.u); err != nil {
					after := sess.Bounds()
					if after.L[st.sink] != before.L[st.sink] || after.U[st.sink] != before.U[st.sink] {
						t.Fatalf("step %d: rejected Retighten(%d, %g, %g) changed the window: %v", i, st.sink, st.l, st.u, err)
					}
				}
			case opReweight:
				if err := sess.Reweight(st.edge, st.weight); err != nil {
					t.Fatalf("step %d: Reweight(%d, %g): %v", i, st.edge, st.weight, err)
				}
				w[st.edge] = st.weight
			case opResolve:
				res, err := sess.Resolve()
				check("Resolve", sess.Bounds(), res, err)
			}
		}
	})
}
