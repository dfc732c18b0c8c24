package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzBytes hands out the fuzz input a choice at a time: next(k) is the
// next byte modulo k, or 0 once the input runs out.
type fuzzBytes []byte

func (d *fuzzBytes) next(k int) int {
	if len(*d) == 0 || k <= 1 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return int(b) % k
}

// pick returns an entry of special, or else a multiple of step below
// 64·step. The specials take the top of the byte range, so an input that
// ran out (all zeros) decodes to ordinary values.
func (d *fuzzBytes) pick(special []float64, step float64) float64 {
	if c := d.next(32); c >= 32-len(special) {
		return special[31-c]
	}
	return float64(d.next(64)) * step
}

var (
	// Coordinates: integer-grid ties, plus magnitudes whose distances or
	// sums overflow float64.
	fuzzCoords = []float64{1e308, -1e308, 1.7e308, -3e307, 1e154, 0.5, -7}
	// Window bounds, absolute or multiples of the radius: ≤ 0 is
	// unbounded on the upper side; 1e308 overflows any sum of two.
	fuzzWindows = []float64{1e308, -1, 0.9, 1.2, 1, 0.5, 2, 1e-300}
	fuzzWeights = []float64{1e308, -1, 0, 2.5, 1e-300}
	fuzzSkews   = []float64{0, 0.1, 1, 1e308, -1}
	fuzzTypes   = []string{"", "skew", "balanced", "custom", "bogus"}
)

// solveRequest decodes a /solve body of at most 12 sinks: an optional
// source, any topology type (a custom parent vector may be malformed),
// uniform or per-sink windows (possibly mis-sized), weights, and the
// normalized, cold and trace flags.
func (d *fuzzBytes) solveRequest() *SolveRequest {
	m := 1 + d.next(12)
	req := &SolveRequest{Sinks: make([]PointJSON, m)}
	for i := range req.Sinks {
		req.Sinks[i] = PointJSON{X: d.pick(fuzzCoords, 16), Y: d.pick(fuzzCoords, 16)}
	}
	if d.next(2) == 1 {
		req.Source = &PointJSON{X: d.pick(fuzzCoords, 16), Y: d.pick(fuzzCoords, 16)}
	}
	if typ := fuzzTypes[d.next(len(fuzzTypes))]; typ != "" || d.next(2) == 1 {
		spec := &TopologySpec{Type: typ}
		if d.next(2) == 1 {
			sb := fuzzSkews[d.next(len(fuzzSkews))]
			spec.SkewBound = &sb
		}
		if typ == "custom" || d.next(8) == 0 {
			n := m + 1 + d.next(m+1)
			spec.Parent = make([]int, n)
			spec.Parent[0] = -1
			for i := 1; i < n; i++ {
				spec.Parent[i] = d.next(i+2) - 1 // mostly an earlier node
			}
		}
		req.Topology = spec
	}
	d.windows(req, m)
	if d.next(4) == 0 {
		req.Weights = make([]float64, d.next(2*m+3))
		for k := range req.Weights {
			req.Weights[k] = d.pick(fuzzWeights, 0.25)
		}
	}
	req.Normalized = d.next(2) == 1
	req.Cold = d.next(4) == 0
	req.Trace = d.next(4) == 0
	return req
}

// windows decodes the delay windows of a request over m sinks: uniform,
// per sink, or per sink with a wrong length.
func (d *fuzzBytes) windows(req *SolveRequest, m int) {
	req.Lower, req.Upper, req.LowerAll, req.UpperAll = nil, nil, 0, 0
	switch d.next(3) {
	case 0:
		req.LowerAll, req.UpperAll = d.pick(fuzzWindows, 25), d.pick(fuzzWindows, 25)
	default:
		n := m
		if d.next(4) == 0 {
			n = d.next(m + 2)
		}
		req.Lower, req.Upper = make([]float64, n), make([]float64, n)
		for i := range n {
			req.Lower[i], req.Upper[i] = d.pick(fuzzWindows, 25), d.pick(fuzzWindows, 25)
		}
	}
}

// ecoRequest decodes an /eco body against key (sometimes an unknown
// one): window retightens and reweights, indices possibly out of range.
func (d *fuzzBytes) ecoRequest(key string, m int) *EcoRequest {
	req := &EcoRequest{Key: key, Trace: d.next(4) == 0}
	if d.next(8) == 0 {
		req.Key = "t:unknown"
	}
	for range d.next(3) {
		req.Retighten = append(req.Retighten, WindowEdit{
			Sink: d.next(m+2) - 1, Lower: d.pick(fuzzWindows, 25), Upper: d.pick(fuzzWindows, 25)})
	}
	for range d.next(3) {
		req.Reweight = append(req.Reweight, WeightEdit{Edge: d.next(2*m+2) - 1, Weight: d.pick(fuzzWeights, 0.25)})
	}
	return req
}

// serveOnce posts body to path and fails unless the answer is 2xx or
// 4xx with a body that decodes as JSON. It returns the key of a solve
// answer ("" otherwise).
func serveOnce(t *testing.T, h http.Handler, path string, body []byte) string {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rr.Code < 200 || (rr.Code >= 300 && rr.Code < 400) || rr.Code >= 500 {
		t.Fatalf("POST %s %s: status %d: %s", path, body, rr.Code, rr.Body)
	}
	var resp struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("POST %s %s: status %d with a body that is not JSON (%v): %q", path, body, rr.Code, err, rr.Body)
	}
	return resp.Key
}

// FuzzServeRequest drives one in-process server through ServeHTTP with
// decoded requests. An input that starts with '{' is sent raw as a
// /solve body, and one that starts with 'e' sends the rest raw as an
// /eco body; any other input decodes into a /solve request (see
// solveRequest) followed by up to three more: the same net with new
// windows (a warm hit when cached) or /eco edits against the returned
// key. Every answer must be 2xx or 4xx — never 5xx — with a body that
// decodes as JSON. The server and its warm-basis cache live for the
// whole run, as they would in lubtd.
func FuzzServeRequest(f *testing.F) {
	srv := New(Config{Workers: 1, CacheSize: 4})
	f.Cleanup(srv.Close)
	f.Add([]byte{5, 10, 3, 40, 7, 90, 2, 0, 60, 12, 1, 3, 0, 0, 0, 2, 1, 30, 2, 1, 2, 1, 1, 0})
	f.Add([]byte{11, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 0, 3, 0, 1, 2, 3})
	f.Add([]byte("e{\"key\":\"t:unknown\",\"retighten\":[{\"sink\":0}]}"))
	f.Add([]byte("{\"sinks\":[{\"x\":1,\"y\":2}],\"lower_all\":-3}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		switch {
		case len(data) > 0 && data[0] == '{':
			serveOnce(t, srv, "/solve", data)
			return
		case len(data) > 0 && data[0] == 'e':
			serveOnce(t, srv, "/eco", data[1:])
			return
		}
		d := fuzzBytes(data)
		req := d.solveRequest()
		m := len(req.Sinks)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		key := serveOnce(t, srv, "/solve", body)
		for range d.next(4) {
			path, next := "/solve", any(req)
			if d.next(2) == 0 {
				d.windows(req, m)
			} else {
				path, next = "/eco", d.ecoRequest(key, m)
			}
			body, err := json.Marshal(next)
			if err != nil {
				t.Fatal(err)
			}
			serveOnce(t, srv, path, body)
		}
	})
}
