package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"time"
)

// span is one timed interval of the traced run. Its JSON keys are those of
// the program's lubt-trace/1 spans, so a trace the program emits decodes
// straight into it. Start and duration are microseconds; benchmark spans
// count from the start of the run, decoded program spans from their root
// until graft re-bases them.
type span struct {
	Name     string         `json:"name"`
	ID       string         `json:"id,omitempty"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*span        `json:"children,omitempty"`
}

// newSpan records the interval [start, end) of the run begun at epoch.
func newSpan(name string, epoch, start, end time.Time) *span {
	return &span{Name: name, StartUS: start.Sub(epoch).Microseconds(), DurUS: end.Sub(start).Microseconds()}
}

// graft decodes a lubt-trace/1 document and hangs its root under parent,
// aligned to the parent's start: the program's trace carries no absolute
// clock, and its root opens within microseconds of the call.
func graft(parent *span, doc []byte) error {
	var tr struct {
		Schema string `json:"schema"`
		Root   *span  `json:"root"`
	}
	if err := json.Unmarshal(doc, &tr); err != nil {
		return fmt.Errorf("decoding trace: %w", err)
	}
	if tr.Schema != "lubt-trace/1" || tr.Root == nil {
		return fmt.Errorf("unexpected trace schema %q", tr.Schema)
	}
	tr.Root.shift(parent.StartUS)
	parent.Children = append(parent.Children, tr.Root)
	return nil
}

func (s *span) shift(us int64) {
	s.StartUS += us
	for _, c := range s.Children {
		c.shift(us)
	}
}

// selfUS is the span's duration minus the part of it its children cover.
func (s *span) selfUS() int64 {
	type iv struct{ a, b int64 }
	end := s.StartUS + s.DurUS
	var ivs []iv
	for _, c := range s.Children {
		a, b := max(c.StartUS, s.StartUS), min(c.StartUS+c.DurUS, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	covered, reach := int64(0), s.StartUS
	for _, v := range ivs {
		a := max(v.a, reach)
		if v.b > a {
			covered += v.b - a
			reach = v.b
		}
	}
	return s.DurUS - covered
}

// walk visits s and every descendant.
func (s *span) walk(visit func(*span)) {
	visit(s)
	for _, c := range s.Children {
		c.walk(visit)
	}
}

// totalMS sums, over s and its descendants with one of the given names,
// the duration (or the self time, when self is set) in milliseconds.
func (s *span) totalMS(self bool, names ...string) float64 {
	var us int64
	s.walk(func(x *span) {
		if slices.Contains(names, x.Name) {
			if self {
				us += x.selfUS()
			} else {
				us += x.DurUS
			}
		}
	})
	return float64(us) / 1e3
}
