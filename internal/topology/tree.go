package topology

import (
	"errors"
	"fmt"
)

// Tree is a rooted tree topology. Construct with New and do not mutate the
// exported fields afterwards; derived structures are built eagerly.
type Tree struct {
	// Parent[i] is the parent node of node i; Parent[0] = −1.
	Parent []int
	// NumSinks is m: nodes 1…m are sinks, nodes m+1…len(Parent)−1 are
	// Steiner points.
	NumSinks int
	// ForcedZero[i] marks edge i as fixed to length zero (created by
	// degree-4 splitting, Fig. 2 of the paper). Entry 0 is unused.
	ForcedZero []bool

	children [][]int
	depth    []int
	// Euler tour arrays for O(1) LCA.
	eulerNode  []int
	eulerDepth []int
	firstVisit []int
	sparse     [][]int32
	log2       []int
}

// ErrInvalidTopology reports a malformed parent vector.
var ErrInvalidTopology = errors.New("topology: invalid tree")

// New builds and validates a tree from a parent vector. parent[0] must be
// −1; every other entry must reference an existing node; the structure
// must be a single tree rooted at node 0. numSinks is m ≥ 1; sink nodes
// are 1…m.
func New(parent []int, numSinks int) (*Tree, error) {
	n := len(parent)
	if n == 0 || parent[0] != -1 {
		return nil, fmt.Errorf("%w: node 0 must be the root", ErrInvalidTopology)
	}
	if numSinks < 1 || numSinks >= n {
		return nil, fmt.Errorf("%w: numSinks %d out of range for %d nodes", ErrInvalidTopology, numSinks, n)
	}
	t := &Tree{
		Parent:     append([]int(nil), parent...),
		NumSinks:   numSinks,
		ForcedZero: make([]bool, n),
	}
	if err := t.build(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustNew is New for hand-built test topologies; it panics on error.
func MustNew(parent []int, numSinks int) *Tree {
	t, err := New(parent, numSinks)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Tree) build() error {
	n := len(t.Parent)
	t.children = make([][]int, n)
	for i := 1; i < n; i++ {
		p := t.Parent[i]
		if p < 0 || p >= n || p == i {
			return fmt.Errorf("%w: node %d has parent %d", ErrInvalidTopology, i, p)
		}
		t.children[p] = append(t.children[p], i)
	}
	// DFS from the root checks connectivity/acyclicity and records depth
	// and the Euler tour.
	t.depth = make([]int, n)
	t.firstVisit = make([]int, n)
	for i := range t.firstVisit {
		t.firstVisit[i] = -1
	}
	t.eulerNode = t.eulerNode[:0]
	t.eulerDepth = t.eulerDepth[:0]
	visited := 0
	// Iterative DFS keeping the Euler tour (node re-appended after each
	// child subtree).
	type frame struct{ node, child int }
	stack := []frame{{0, 0}}
	t.depth[0] = 0
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		node := f.node
		if f.child == 0 {
			if t.firstVisit[node] >= 0 {
				return fmt.Errorf("%w: cycle through node %d", ErrInvalidTopology, node)
			}
			t.firstVisit[node] = len(t.eulerNode)
			visited++
		}
		t.eulerNode = append(t.eulerNode, node)
		t.eulerDepth = append(t.eulerDepth, t.depth[node])
		if f.child < len(t.children[node]) {
			c := t.children[node][f.child]
			f.child++
			t.depth[c] = t.depth[node] + 1
			stack = append(stack, frame{c, 0})
		} else {
			stack = stack[:len(stack)-1]
		}
	}
	if visited != n {
		return fmt.Errorf("%w: %d of %d nodes unreachable from root", ErrInvalidTopology, n-visited, n)
	}
	t.buildSparse()
	return nil
}

// N returns the total node count (root + sinks + Steiner points).
func (t *Tree) N() int { return len(t.Parent) }

// NumEdges returns the number of edges, N()−1. Edge indices are 1…NumEdges.
func (t *Tree) NumEdges() int { return t.N() - 1 }

// IsSink reports whether node i is a sink.
func (t *Tree) IsSink(i int) bool { return i >= 1 && i <= t.NumSinks }

// IsSteiner reports whether node i is a Steiner point.
func (t *Tree) IsSteiner(i int) bool { return i > t.NumSinks && i < t.N() }

// Children returns the child list of node i (shared storage; do not
// mutate).
func (t *Tree) Children(i int) []int { return t.children[i] }

// Depth returns the edge depth of node i (root = 0).
func (t *Tree) Depth(i int) int { return t.depth[i] }

// Sinks returns the sink node indices 1…m.
func (t *Tree) Sinks() []int {
	s := make([]int, t.NumSinks)
	for i := range s {
		s[i] = i + 1
	}
	return s
}

// AllSinksAreLeaves reports whether every sink is a leaf — the condition
// of Lemma 3.1 under which every bound combination is feasible.
func (t *Tree) AllSinksAreLeaves() bool {
	for i := 1; i <= t.NumSinks; i++ {
		if len(t.children[i]) > 0 {
			return false
		}
	}
	return true
}

// MaxDegree returns the maximum node degree (parent + children edges).
func (t *Tree) MaxDegree() int {
	max := 0
	for i := 0; i < t.N(); i++ {
		d := len(t.children[i])
		if i != 0 {
			d++
		}
		if d > max {
			max = d
		}
	}
	return max
}

// PathToRoot returns the edges (child-node indices) on the path from node
// i up to the root, nearest first.
func (t *Tree) PathToRoot(i int) []int {
	var edges []int
	for i != 0 {
		edges = append(edges, i)
		i = t.Parent[i]
	}
	return edges
}

// Path returns the edges on the unique path between nodes i and j.
func (t *Tree) Path(i, j int) []int {
	l := t.LCA(i, j)
	var edges []int
	for x := i; x != l; x = t.Parent[x] {
		edges = append(edges, x)
	}
	for x := j; x != l; x = t.Parent[x] {
		edges = append(edges, x)
	}
	return edges
}

// SinkOrder returns the sinks (1…NumSinks) in DFS first-visit order
// together with, for every node v, the half-open span [lo[v], hi[v]) of
// positions in that order covered by v's subtree. Because a DFS visits
// each subtree contiguously, a subtree's sink set is always one slice
// order[lo[v]:hi[v]] — this is what lets the presolve pass in
// internal/core enumerate child-subtree sink blocks without touching the
// Euler-tour internals. Nodes with no sinks below get an empty span
// (lo[v] == hi[v]).
func (t *Tree) SinkOrder() (order, lo, hi []int) {
	// Preorder visits children in the order of the build DFS, so it lists
	// the sinks by first visit.
	order = make([]int, 0, t.NumSinks)
	for _, v := range t.Preorder() {
		if t.IsSink(v) {
			order = append(order, v)
		}
	}
	pos := make([]int, t.N())
	for i := range pos {
		pos[i] = -1
	}
	for p, s := range order {
		pos[s] = p
	}
	n := t.N()
	lo = make([]int, n)
	hi = make([]int, n)
	for i := range lo {
		lo[i] = t.NumSinks // past any position; min-folds below
		hi[i] = -1
	}
	for _, v := range t.Postorder() {
		if pos[v] >= 0 {
			if pos[v] < lo[v] {
				lo[v] = pos[v]
			}
			if pos[v]+1 > hi[v] {
				hi[v] = pos[v] + 1
			}
		}
		if v != 0 {
			p := t.Parent[v]
			if lo[v] < lo[p] {
				lo[p] = lo[v]
			}
			if hi[v] > hi[p] {
				hi[p] = hi[v]
			}
		}
	}
	for v := range lo {
		if hi[v] < 0 {
			lo[v], hi[v] = 0, 0
		}
	}
	return order, lo, hi
}

// Postorder returns the nodes in postorder (children before parents).
func (t *Tree) Postorder() []int {
	order := make([]int, 0, t.N())
	var stack []int
	stack = append(stack, 0)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, n)
		stack = append(stack, t.children[n]...)
	}
	// Reverse of a preorder with children pushed left-to-right is a valid
	// postorder with children visited right-to-left; reverse in place.
	for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
		order[l], order[r] = order[r], order[l]
	}
	return order
}

// Preorder returns the nodes in preorder (parents before children).
func (t *Tree) Preorder() []int {
	order := make([]int, 0, t.N())
	stack := []int{0}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, n)
		for k := len(t.children[n]) - 1; k >= 0; k-- {
			stack = append(stack, t.children[n][k])
		}
	}
	return order
}

// Delays returns, for each node, the sum of the given edge lengths on its
// root path — delay(s_i) of Eq. (1) under the linear delay model. e is
// indexed by edge (child node); e[0] is ignored.
func (t *Tree) Delays(e []float64) []float64 {
	if len(e) < t.N() {
		panic("topology: Delays edge vector too short")
	}
	d := make([]float64, t.N())
	for _, n := range t.Preorder() {
		if n == 0 {
			continue
		}
		d[n] = d[t.Parent[n]] + e[n]
	}
	return d
}

// PathLength returns the total edge length on the path between nodes i and
// j given per-edge lengths e and the node delays computed by Delays(e).
func (t *Tree) PathLength(i, j int, delays []float64) float64 {
	l := t.LCA(i, j)
	return delays[i] + delays[j] - 2*delays[l]
}

// String summarizes the topology.
func (t *Tree) String() string {
	return fmt.Sprintf("Tree(%d nodes, %d sinks, %d steiner)",
		t.N(), t.NumSinks, t.N()-1-t.NumSinks)
}
