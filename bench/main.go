// Command bench is the repository benchmark. It runs one workload, or all
// of them each in its own child process, for a fixed time; checks every
// answer; and prints every metric by name with its unit. The last line of
// standard output is a JSON summary. With -trace 1 it reports per-layer
// metrics instead of end-to-end ones. -compare reads two files of -out
// records and judges each metric against its bound.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload clock-mid --seed 1 --trace 0
//
// See bench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"time"
)

const (
	// runSeconds is how long one workload run takes, set-up and checks
	// included. BENCHMARK.json's run_seconds states it; a test checks
	// that the two agree.
	runSeconds = 30
	// exitMargin is kept free at the end of a run for its last op to
	// finish and the process to exit.
	exitMargin = time.Second
	// setupRuns is how many times a run sets its workload up; setup_s is
	// the median. Set-ups last 0.2–1 s, and repeats of one set-up in one
	// process were measured to vary by ±15% on a shared 2-vCPU host.
	setupRuns = 5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all (required)")
	seed := fs.Int64("seed", 1, "input seed")
	// The run length is fixed; the flag exists because BENCHMARK.json's
	// calling convention passes run_seconds, and it refuses any other value.
	seconds := fs.Int("seconds", runSeconds, "run length in seconds; must be the fixed run length")
	trace := fs.Int("trace", 0, "1 measures per-layer metrics in a traced run")
	out := fs.String("out", "", "append one JSON record per workload run to this file")
	compareMode := fs.Bool("compare", false, "compare two -out files: -compare parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: parent, change")
			return 2
		}
		if err := compare(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want -trace 0|1 and no positional arguments")
		return 2
	}
	if *seconds != runSeconds {
		fmt.Fprintf(stderr, "bench: a run takes %d s (BENCHMARK.json run_seconds), not %d\n", runSeconds, *seconds)
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q; want one of the workloads in BENCHMARK.json, or all\n", *name)
		return 2
	}
	p := plan{seed: *seed, deadline: start.Add(runSeconds*time.Second - exitMargin), trace: *trace == 1, setups: setupRuns}
	if p.trace {
		p.setups = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	rec, err := measure(w, p)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if rec.firstErr != nil {
		fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed; first: %v\n", w.name, rec.Failed, rec.Attempted, rec.firstErr)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := rec.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so each has
// its own heap and peak RSS, with the same flags otherwise.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(slices.Clip(args), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one workload run as -out stores it and -compare reads it.
type record struct {
	Schema   string      `json:"schema"`
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Trace    int         `json:"trace"`
	Env      environment `json:"env"`
	// Replaced counts the nets of the whole run replaced because the
	// topology generator panicked on them.
	Replaced int `json:"replaced_nets"`
	// HostScale is the factor that brought the run's times to the
	// reference host (see hostScale); a time over it is the time measured.
	HostScale float64 `json:"host_scale"`
	summary
	Spans    []*span `json:"spans,omitempty"`
	firstErr error
}

const recordSchema = "lubt-benchrun/1"

// measure runs the workload under the plan and assembles its record.
func measure(w workload, p plan) (record, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	res, err := w.run(p, time.Now())
	if err != nil {
		return record{}, err
	}
	rec := record{
		Schema: recordSchema, Workload: w.name, Seed: p.seed,
		Env: readEnvironment(), Replaced: res.replaced, HostScale: res.hostScale,
		summary: summary{
			Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
			Metrics: map[string]metricValue{},
		},
		Spans:    res.spans,
		firstErr: res.firstErr,
	}
	res.metrics["failed_frac"] = float64(res.failed) / float64(res.attempted)
	for name := range res.metrics {
		if _, ok := specOf(name); !ok {
			return record{}, fmt.Errorf("metric %q is not in the metric tables", name)
		}
	}
	// An untraced run reports the end-to-end table, a traced run the
	// per-layer one; a layer the workload does not reach reads 0.
	tab := endToEnd
	if p.trace {
		rec.Trace, tab = 1, perLayer
	}
	for _, s := range tab {
		v, ok := res.metrics[s.name]
		if !ok && !p.trace {
			return record{}, fmt.Errorf("end-to-end metric %q was not measured", s.name)
		}
		rec.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return rec, nil
}

// print writes the human-readable report, then the JSON summary line.
func (r record) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d  trace %d\n", r.Workload, r.Seed, r.Trace)
	fmt.Fprintf(w, "env %s  nproc %d  gomaxprocs %d  cpu %q  commit %s\n",
		r.Env.Go, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.CPU, r.Env.Commit)
	fmt.Fprintf(w, "samples %d  failed %d  replaced nets %d  host scale %.4f\n", r.Attempted, r.Failed, r.Replaced, r.HostScale)
	for _, tab := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range tab {
			if v, ok := r.Metrics[s.name]; ok {
				fmt.Fprintf(w, "%-28s %14s %s\n", s.name, strconv.FormatFloat(v.Value, 'g', 8, 64), v.Unit)
			}
		}
	}
	line, err := json.Marshal(r.summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
