// Package bst implements the comparison baseline of the LUBT paper: a
// bounded-skew clock routing tree constructor in the style of reference
// [9] (Huang, Kahng, Tsao, DAC'95), which the paper both compares against
// (Table 1) and uses as its topology generator. Since the original code is
// not available, this is a faithful reimplementation of the published
// approach:
//
//   - greedy nearest-neighbour cluster merging, with the merge cost (and
//     hence the topology) driven by the skew budget exactly as in [9]'s
//     "topology changes dynamically during construction based on skew";
//   - per-cluster octilinear merge regions (the feasible regions of
//     bounded-skew routing) maintained with internal/geom's Octagon;
//   - exact delay-interval bookkeeping: every cluster tracks the min and
//     max path length from its merge point to its sinks, so the skew
//     bound holds exactly in the final tree (elongated wires are snaked
//     to their full nominal length, so path sums are exact regardless of
//     where points land inside their regions).
//
// The nearest-neighbour search is exact but pruned. The live clusters
// are kept in ascending order of their regions' u = x+y lower bound
// (ULo). The merge sum of two clusters is at least their u-gap, one of
// the terms Octagon.Dist takes the maximum of, and the skew terms only
// raise it. Scanning right from a cluster the u-gap is lo_j − hi_i, which
// grows along the order; scanning left it is at least lo_i − max hi over
// the rest of the scan, which grows too. So a refresh stops each scan
// where that bound exceeds the best sum found: no cluster it skips could
// match the best, let alone beat it. Ties still go to the smaller
// cluster index, so the topology and every wire length equal those of
// the full rescan, which the package's tests keep as the reference. A
// refresh thus visits the clusters near its own in u, not all of them.
//
// One simplification against the full BST/DME algorithm is documented in
// DESIGN.md: delay intervals are treated as position-independent inside a
// merge region, which can cost some wirelength optimality but never skew
// correctness. The LUBT LP then improves on this baseline's cost under
// the same topology — the paper's central experiment.
package bst
