package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// compare reads the parent's and the change's -out records and prints,
// per workload and metric, each side's quartiles, the change's wins over
// the pairs run with the same seed, and a verdict. A metric with a bound
// reads regressed (median worse by more than the bound), unresolved (the
// parent's own spread exceeds the bound and the change does not beat
// every parent run), improved (at least 9 of 10 pairs won and medians
// apart by more than the parent's spread) or unchanged. An exact count
// reads "count moved" when any pair differs.
func compare(parentPath, changePath string, w io.Writer) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent q1 / median / q3\tchange q1 / median / q3\twins\tverdict")
	for _, wl := range workloads {
		for trace, tab := range [][]metricSpec{endToEnd, perLayer} {
			a, b := runsOf(parent, wl.name, trace), runsOf(change, wl.name, trace)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			pairs := pairBySeed(a, b)
			for _, s := range tab {
				av, bv := valuesOf(a, s.name), valuesOf(b, s.name)
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				var pv [][2]float64
				wins := 0
				for _, p := range pairs {
					x, okx := p[0].Metrics[s.name]
					y, oky := p[1].Metrics[s.name]
					if okx && oky {
						pv = append(pv, [2]float64{x.Value, y.Value})
						if isBetter(s, x.Value, y.Value) {
							wins++
						}
					}
				}
				exact := s.exact == exactEverywhere || (s.exact == exactOnClock && wl.clock != nil)
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%s\n", wl.name, s.name,
					fmtQuartiles(av), fmtQuartiles(bv), wins, len(pv), verdict(s, exact, av, bv, pv, wins))
			}
		}
	}
	return tw.Flush()
}

func verdict(s metricSpec, exact bool, av, bv []float64, pairs [][2]float64, wins int) string {
	if s.bound == 0 {
		if !exact || len(pairs) == 0 {
			return "-"
		}
		for _, p := range pairs {
			if p[0] != p[1] {
				return "count moved"
			}
		}
		return "count same"
	}
	a1, am, a3 := quartiles(av)
	_, bm, _ := quartiles(bv)
	worse := (bm - am) / am
	if s.better == "higher" {
		worse = -worse
	}
	switch {
	case worse > s.bound:
		return "regressed"
	case (a3-a1)/am > s.bound && !allBetter(s, av, bv):
		return "unresolved"
	case len(pairs) > 0 && float64(wins) >= 0.9*float64(len(pairs)) && math.Abs(bm-am) > a3-a1:
		return "improved"
	}
	return "unchanged"
}

// isBetter reports whether the change's value y beats the parent's x.
func isBetter(s metricSpec, x, y float64) bool {
	if s.better == "higher" {
		return y > x
	}
	return y < x
}

// allBetter reports whether every change run beats every parent run.
func allBetter(s metricSpec, av, bv []float64) bool {
	for _, x := range av {
		for _, y := range bv {
			if !isBetter(s, x, y) {
				return false
			}
		}
	}
	return true
}

func fmtQuartiles(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.4g / %.4g / %.4g", q1, q2, q3)
}

// readRecords reads a file of -out records, one JSON object a line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<30) // traced records carry every span of the run
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Schema != recordSchema {
			return nil, fmt.Errorf("%s:%d: schema %q, want %q", path, line, r.Schema, recordSchema)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func runsOf(recs []record, workload string, trace int) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// pairBySeed matches each change run with an unused parent run of the same
// seed, in file order.
func pairBySeed(a, b []record) [][2]record {
	used := make([]bool, len(a))
	var out [][2]record
	for _, y := range b {
		for i, x := range a {
			if !used[i] && x.Seed == y.Seed {
				used[i] = true
				out = append(out, [2]record{x, y})
				break
			}
		}
	}
	return out
}
