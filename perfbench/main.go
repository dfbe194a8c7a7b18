// Command perfbench is the repository's end-to-end benchmark. It boots
// one platform in-process, drives one fixed workload (session,
// interactive or guard) through the public API with a closed loop of
// clients, checks every output and the audit trail, and prints every
// metric by name and unit. The last line of standard output is one
// JSON object: with --trace 0 it holds the gated end-to-end metrics,
// with --trace 1 the per-layer metrics of a traced run.
//
//	perfbench --workload session --seed 1 --seconds 20 --trace 0
//	perfbench compare DIR_A DIR_B
//
// Each run also writes its full report (all end-to-end metrics, host
// metadata, the trail verdict) under --out/results, and a traced run
// writes its spans and CPU profile under --out/trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mpj/internal/audit"
)

// config is one run's settings.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		name    = flag.String("workload", "session", "workload: session, interactive or guard")
		seed    = flag.Int64("seed", 1, "seed of the op-kind and user sequences")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for reports, spans and profiles")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	time.AfterFunc(runBudget, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runBudget)
		os.Exit(3)
	})
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// host records where a run was measured.
type host struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"),
		GoVersion: runtime.Version(), Commit: os.Getenv("PERFBENCH_COMMIT")}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	return h
}

// report is one run's full result.
type report struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Trace    int              `json:"trace"`
	Clients  int              `json:"clients"`
	Seconds  float64          `json:"seconds"`
	Rounds   int              `json:"rounds"`
	Host     host             `json:"host"`
	Outcome  outcome          `json:"outcome"`
	Metrics  map[string]value `json:"metrics"`
}

// outcome is a run's correctness verdict. Correct covers what the
// ops returned and the scenarios' conservation checks; the audit
// trail's verdict is TrailVerified, reported beside it so that a
// broken trail shows in every run without hiding the other numbers.
type outcome struct {
	Attempted     int64    `json:"attempted"`
	Failed        int64    `json:"failed"`
	Wrong         int64    `json:"wrong"`
	FirstError    string   `json:"first_error,omitempty"`
	Checks        []string `json:"check_failures,omitempty"`
	Correct       bool     `json:"correct"`
	TrailVerified bool     `json:"trail_verified"`
	TrailFault    string   `json:"trail_fault,omitempty"`
}

// trailResult is what the post-run audit check found.
type trailResult struct {
	verify       audit.VerifyResult
	verifyErr    error
	conservation error
}

// summarize folds op accounting, scenario checks and the trail check
// into the run's verdict.
func summarize(attempted, failed, wrong int64, firstErr error, checks []error, tr trailResult) outcome {
	o := outcome{Attempted: attempted, Failed: failed, Wrong: wrong}
	if firstErr != nil {
		o.FirstError = firstErr.Error()
	}
	for _, err := range checks {
		o.Checks = append(o.Checks, err.Error())
	}
	o.Correct = wrong == 0 && len(checks) == 0
	switch {
	case tr.verifyErr != nil:
		o.TrailFault = "verify: " + tr.verifyErr.Error()
	case !tr.verify.OK:
		o.TrailFault = fmt.Sprintf("%s (%s line %d)", tr.verify.Reason, tr.verify.BrokenSegment, tr.verify.BrokenLine)
	case tr.conservation != nil:
		o.TrailFault = tr.conservation.Error()
	case len(checks) > 0:
		o.TrailFault = "scenario check: " + o.Checks[0]
	}
	o.TrailVerified = o.TrailFault == ""
	return o
}

// emit prints the report: one line per metric, the verdict, then the
// contract line. It also saves the full report for compare.
func emit(w io.Writer, cfg config, rep *report) error {
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, rep.Trace))
	if err := os.WriteFile(file, append(full, '\n'), 0o644); err != nil {
		return err
	}
	h := rep.Host
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d trace=%d clients=%d seconds=%g rounds=%d numcpu=%d gomaxprocs=%d gogc=%s go=%s commit=%s\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Clients, rep.Seconds, rep.Rounds, h.NumCPU, h.GOMAXPROCS, h.GOGC, h.GoVersion, h.Commit)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rep.Metrics[name]
		fmt.Fprintf(w, "%-28s %16.4f %-13s n=%d", name, v.Value, v.Unit, v.N)
		if d, ok := findDef(name); ok && d.Moves != "" {
			fmt.Fprintf(w, "  moves %s", d.Moves)
			if d.Still != "" {
				fmt.Fprintf(w, "; still on %s", d.Still)
			}
		}
		fmt.Fprintln(w)
	}
	o := rep.Outcome
	fmt.Fprintf(w, "# outcome attempted=%d failed=%d wrong=%d correct=%t trail_verified=%t\n",
		o.Attempted, o.Failed, o.Wrong, o.Correct, o.TrailVerified)
	if o.FirstError != "" {
		fmt.Fprintf(w, "# first error: %s\n", o.FirstError)
	}
	for _, c := range o.Checks {
		fmt.Fprintf(w, "# check failed: %s\n", c)
	}
	if o.TrailFault != "" {
		fmt.Fprintf(w, "# trail fault: %s\n", o.TrailFault)
	}
	line, err := contractLine(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// contractLine is the driver-facing last line: the gated end-to-end
// metrics, or with tracing every per-layer metric.
func contractLine(rep *report) ([]byte, error) {
	defs := perLayer
	if rep.Trace == 0 {
		defs = nil
		for _, d := range endToEnd {
			if d.Gated {
				defs = append(defs, d)
			}
		}
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s missing from the %s report", d.Name, rep.Workload)
		}
		metrics[d.Name] = value{Value: v.Value, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Outcome.Correct, rep.Outcome.Attempted, rep.Outcome.Failed, metrics})
}
