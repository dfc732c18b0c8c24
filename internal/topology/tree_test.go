package topology

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fig3Tree builds the 5-point example of §4.5 (Fig. 3): sinks 1…5,
// Steiner points 6,7,8, root 0 (source position not given). The structure
// is read off the paper's constraint list: e1+e6 is s1's root path, e2+e8
// is s2's, e3+e7+e8 is s3's — so 7's parent is 8, 8's and 6's parent is
// the root.
func fig3Tree(t *testing.T) *Tree {
	t.Helper()
	//            0
	//          /   \
	//         6     8
	//        / \   / \
	//       1   5 2   7
	//                / \
	//               3   4
	parent := []int{-1, 6, 8, 7, 7, 6, 0, 8, 0}
	tree, err := New(parent, 5)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestNewValidTree(t *testing.T) {
	tree := fig3Tree(t)
	if tree.N() != 9 || tree.NumEdges() != 8 || tree.NumSinks != 5 {
		t.Fatalf("shape wrong: %v", tree)
	}
	if !tree.AllSinksAreLeaves() {
		t.Error("fig3 sinks must be leaves")
	}
	if tree.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3", tree.MaxDegree())
	}
	if !tree.IsSink(3) || tree.IsSink(6) || !tree.IsSteiner(6) || tree.IsSteiner(0) {
		t.Error("node classification wrong")
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	cases := []struct {
		parent []int
		m      int
	}{
		{nil, 1},
		{[]int{0}, 1},        // root not −1
		{[]int{-1, 1}, 1},    // self-parent
		{[]int{-1, 5}, 1},    // out of range
		{[]int{-1, 2, 1}, 1}, // cycle 1↔2 unreachable from root
		{[]int{-1, 0}, 0},    // numSinks < 1
		{[]int{-1, 0}, 2},    // numSinks ≥ n
	}
	for i, c := range cases {
		if _, err := New(c.parent, c.m); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MustNew([]int{0}, 1)
}

func TestPathToRoot(t *testing.T) {
	tree := fig3Tree(t)
	got := tree.PathToRoot(3)
	want := []int{3, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("path = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path = %v, want %v", got, want)
		}
	}
	if len(tree.PathToRoot(0)) != 0 {
		t.Error("root path not empty")
	}
}

func TestPathMatchesPaperConstraints(t *testing.T) {
	// §4.5 lists path(s1,s3) = {e1,e6,e8,e7,e3} and path(s3,s4) = {e3,e4}.
	tree := fig3Tree(t)
	check := func(i, j int, want map[int]bool) {
		t.Helper()
		got := tree.Path(i, j)
		if len(got) != len(want) {
			t.Fatalf("path(%d,%d) = %v", i, j, got)
		}
		for _, e := range got {
			if !want[e] {
				t.Fatalf("path(%d,%d) contains unexpected edge %d", i, j, e)
			}
		}
	}
	check(1, 3, map[int]bool{1: true, 6: true, 8: true, 7: true, 3: true})
	check(3, 4, map[int]bool{3: true, 4: true})
	check(1, 5, map[int]bool{1: true, 5: true})
	check(2, 4, map[int]bool{2: true, 7: true, 4: true})
}

func TestLCAAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		m := 2 + rng.Intn(20)
		tree, err := RandomBinary(rng, m, rng.Intn(2) == 0)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 100; q++ {
			i := rng.Intn(tree.N())
			j := rng.Intn(tree.N())
			if got, want := tree.LCA(i, j), tree.lcaNaive(i, j); got != want {
				t.Fatalf("LCA(%d,%d) = %d, want %d in %v", i, j, got, want, tree.Parent)
			}
		}
	}
}

func TestTraversalOrders(t *testing.T) {
	tree := fig3Tree(t)
	post := tree.Postorder()
	pre := tree.Preorder()
	if len(post) != tree.N() || len(pre) != tree.N() {
		t.Fatal("traversal length wrong")
	}
	seenPost := map[int]bool{}
	for _, n := range post {
		for _, c := range tree.Children(n) {
			if !seenPost[c] {
				t.Fatalf("postorder visits %d before child %d", n, c)
			}
		}
		seenPost[n] = true
	}
	seenPre := map[int]bool{}
	for _, n := range pre {
		if n != 0 && !seenPre[tree.Parent[n]] {
			t.Fatalf("preorder visits %d before parent", n)
		}
		seenPre[n] = true
	}
}

func TestDelaysAndPathLength(t *testing.T) {
	tree := fig3Tree(t)
	e := make([]float64, tree.N())
	// Edge lengths from a feasible hand solution of the §4.5 example.
	e[1], e[2], e[3], e[4], e[5], e[6], e[7], e[8] = 3, 4, 1, 1, 3, 1, 1, 1
	d := tree.Delays(e)
	if math.Abs(d[1]-4) > 1e-12 { // e1+e6
		t.Errorf("delay(s1) = %g", d[1])
	}
	if math.Abs(d[3]-3) > 1e-12 { // e3+e7+e8
		t.Errorf("delay(s3) = %g", d[3])
	}
	if math.Abs(tree.PathLength(3, 4, d)-2) > 1e-12 { // e3+e4
		t.Errorf("pathlength(3,4) = %g", tree.PathLength(3, 4, d))
	}
	if math.Abs(tree.PathLength(1, 3, d)-7) > 1e-12 { // e1+e6+e8+e7+e3 = 3+1+1+1+1
		t.Errorf("pathlength(1,3) = %g", tree.PathLength(1, 3, d))
	}
}

func TestDelaysPanicsOnShortVector(t *testing.T) {
	tree := fig3Tree(t)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	tree.Delays(make([]float64, 2))
}

func TestPathLengthMatchesExplicitPath(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(15)
		tree, err := RandomBinary(rng, m, rng.Intn(2) == 0)
		if err != nil {
			t.Fatal(err)
		}
		e := make([]float64, tree.N())
		for i := 1; i < tree.N(); i++ {
			e[i] = rng.Float64() * 10
		}
		d := tree.Delays(e)
		for q := 0; q < 50; q++ {
			i := rng.Intn(tree.N())
			j := rng.Intn(tree.N())
			var want float64
			for _, ed := range tree.Path(i, j) {
				want += e[ed]
			}
			if got := tree.PathLength(i, j, d); math.Abs(got-want) > 1e-9 {
				t.Fatalf("PathLength(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

// TestSinkOrder checks SinkOrder on random trees with non-leaf sinks,
// Steiner leaves and high degree: the sinks come in first-visit order,
// and each node's span lists exactly the sinks of its subtree.
func TestSinkOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(12)
		n := 1 + m + rng.Intn(8)
		// Attach the nodes in a random order, each under the root or a
		// node attached before it.
		attach := rng.Perm(n - 1)
		parent := make([]int, n)
		parent[0] = -1
		attached := []int{0}
		for _, k := range attach {
			parent[k+1] = attached[rng.Intn(len(attached))]
			attached = append(attached, k+1)
		}
		tree := MustNew(parent, m)
		order, lo, hi := tree.SinkOrder()
		if len(order) != m {
			t.Fatalf("trial %d: %d sinks in order, want %d", trial, len(order), m)
		}
		seen := make([]bool, m+1)
		for p, s := range order {
			if !tree.IsSink(s) || seen[s] {
				t.Fatalf("trial %d: order %v is not a permutation of the sinks", trial, order)
			}
			seen[s] = true
			if p > 0 && tree.firstVisit[order[p-1]] >= tree.firstVisit[s] {
				t.Fatalf("trial %d: order %v is not in first-visit order", trial, order)
			}
		}
		for v := 0; v < n; v++ {
			var want []int
			for _, s := range order {
				for x := s; x >= 0; x = tree.Parent[x] {
					if x == v {
						want = append(want, s)
						break
					}
				}
			}
			got := order[lo[v]:hi[v]]
			if len(want) == 0 && (lo[v] != 0 || hi[v] != 0) {
				t.Fatalf("trial %d: node %d has no sinks but span [%d, %d)", trial, v, lo[v], hi[v])
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: node %d spans %v, its subtree's sinks are %v", trial, v, got, want)
			}
		}
	}
}

func TestString(t *testing.T) {
	if fig3Tree(t).String() == "" {
		t.Error("empty String")
	}
}
