package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"mpj/internal/audit"
	"mpj/internal/security"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"innermost repo frame wins", []string{
			"runtime.memclrNoHeapPointers", "runtime.mallocgc",
			"mpj/internal/streams.(*Pipe).Write", "mpj/internal/shell.(*Shell).run",
			"mpj/internal/core.(*Platform).Exec", "main.(*env).drive.func1",
		}, "streams"},
		{"inlined closure in a layer", []string{
			"sync.(*Mutex).Lock", "mpj/internal/audit.(*Log).drain.func2", "mpj/internal/audit.(*Log).drain",
		}, "audit"},
		{"runtime only", []string{"runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, ""},
		{"benchmark frame", []string{"runtime.nanotime", "time.Now", "main.nanotime", "main.(*env).drive.func1"}, harness},
		{"load scenario is harness", []string{
			"fmt.Sprintf", "mpj/internal/load.setupObjects.func2", "main.(*env).scenario.func1",
		}, harness},
		{"harness calling a layer charges the layer", []string{
			"mpj/internal/vfs.(*FS).ReadFile", "main.setupInteractive.func1",
		}, "vfs"},
		{"empty stack", nil, ""},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAttributeShares(t *testing.T) {
	samples := []cpuSample{
		{stack: []string{"runtime.memclrNoHeapPointers", "mpj/internal/streams.(*Pipe).Write"}, count: 2},
		{stack: []string{"runtime.memmove", "mpj/internal/audit.sortRecords", "mpj/internal/audit.(*Log).drain"}, count: 3},
		{stack: []string{"runtime.copystack", "runtime.newstack", "runtime.morestack", "mpj/internal/vm.(*VM).Spawn"}, count: 1},
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, count: 4},
	}
	shares, total := attribute(samples)
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	want := map[string]float64{
		"streams.cpu_share":          0.2,
		"audit.cpu_share":            0.3,
		"vm.cpu_share":               0.1,
		"runtime.unattributed_share": 0.4,
		"runtime.memclr_share":       0.2,
		"audit.sort_share":           0.3,
		"runtime.stack_growth_share": 0.1,
		"runtime.gc_share":           0.4,
		"security.cpu_share":         0,
	}
	for k, v := range want {
		if shares[k] != v {
			t.Errorf("%s = %v, want %v", k, shares[k], v)
		}
	}
}

//go:noinline
func burnForProfile(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestDecodeProfile decodes a real CPU profile from this process and
// finds the burning function's samples in it.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burnForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var hits, total int64
	for _, s := range samples {
		total += s.count
		if anyFrame(s.stack, func(fn string) bool { return fn == "mpj/perfbench.burnForProfile" || fn == "main.burnForProfile" }) {
			hits += s.count
		}
	}
	if total == 0 || hits == 0 {
		t.Fatalf("decoded %d samples, %d in burnForProfile", total, hits)
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for id, name := range spanNames {
		if _, ok := findDef(name + "_us"); !ok {
			t.Errorf("span %d (%s) has no per-layer metric", id, name)
		}
	}
	for _, w := range workloads {
		for _, k := range w.Kinds {
			if _, ok := findDef(k.Name + "_p50_us"); !ok {
				t.Errorf("%s kind %s has no end-to-end latency metric", w.Name, k.Name)
			}
		}
	}
	for _, bad := range []string{"", "a b", "x/y", "-lead", "é"} {
		if metricName.MatchString(bad) {
			t.Errorf("bad name %q accepted", bad)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step:
// the gated end-to-end metrics and every per-layer metric, with the
// same units, directions and bounds, and every workload.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.Gated {
			gated = append(gated, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
		}
	}
	if fmt.Sprint(b.EndToEnd) != fmt.Sprint(gated) {
		t.Errorf("end_to_end:\n json %v\n code %v", b.EndToEnd, gated)
	}
	var layers []metricDef
	for _, d := range perLayer {
		layers = append(layers, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	if fmt.Sprint(b.PerLayer) != fmt.Sprint(layers) {
		t.Errorf("per_layer:\n json %v\n code %v", b.PerLayer, layers)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
}

func TestGenDeterministic(t *testing.T) {
	kinds := workloads[0].Kinds
	draw := func(seed int64, client int) [][2]int {
		g := newGen(seed, client, kinds)
		out := make([][2]int, 2000)
		for i := range out {
			k, u := g.next()
			out[i] = [2]int{k, u}
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed and client gave different sequences")
	}
	if fmt.Sprint(a) == fmt.Sprint(draw(8, 0)) || fmt.Sprint(a) == fmt.Sprint(draw(7, 1)) {
		t.Fatal("another seed or client gave the same sequence")
	}
	// The mix follows the weights (2:4:2:2) and users stay in range,
	// zipf-skewed towards user 0.
	count := make([]int, len(kinds))
	hot := 0
	for _, s := range a {
		count[s[0]]++
		if s[1] < 0 || s[1] >= population {
			t.Fatalf("user %d out of range", s[1])
		}
		if s[1] == 0 {
			hot++
		}
	}
	if count[1] < count[0] || count[1] < count[2] || count[1] < count[3] {
		t.Errorf("exec (weight 4) drawn less than a weight-2 kind: %v", count)
	}
	if hot < len(a)/10 {
		t.Errorf("user 0 drawn %d of %d times; zipf 0.99 over 64 should give ~21%%", hot, len(a))
	}
}

func TestRefusal(t *testing.T) {
	denied := &security.AccessControlError{Perm: security.NewFilePermission("/home/u001/guard.txt", "read")}
	if err := refusal("u000", "u001", fmt.Errorf("read: %w", denied)); err != nil {
		t.Errorf("a security denial is the right answer, got %v", err)
	}
	if err := refusal("u000", "u001", nil); !errors.Is(err, errWrong) {
		t.Errorf("an allowed hostile read must be a wrong answer, got %v", err)
	}
	if err := refusal("u000", "u001", os.ErrNotExist); err == nil || errors.Is(err, errWrong) {
		t.Errorf("another error is a failure, not a wrong answer: %v", err)
	}
}

// TestAccounting drives a client's record through ok ops, a failure
// and an unexpected allow on read_refused, then folds it into the
// verdict with and without a clean trail.
func TestAccounting(t *testing.T) {
	c := &client{}
	c.record(0, 0, 1000, nil)
	c.record(1, 0, 2000, nil)
	c.record(0, 0, 500, errStalled)
	c.record(1, 0, 700, refusal("u000", "u001", nil))
	if c.attempted != 4 || c.failed != 2 || c.wrong != 1 {
		t.Fatalf("attempted %d failed %d wrong %d, want 4 2 1", c.attempted, c.failed, c.wrong)
	}
	if !errors.Is(c.firstErr, errStalled) {
		t.Errorf("first error = %v", c.firstErr)
	}
	if lat := c.samples.s[2] & failedLatency; lat != failedLatency {
		t.Errorf("failed op latency %d, want the failure sentinel", lat)
	}

	clean := trailResult{verify: audit.VerifyResult{OK: true}}
	o := summarize(c.attempted, c.failed, c.wrong, c.firstErr, nil, clean)
	if o.Correct || !o.TrailVerified {
		t.Errorf("unexpected allow: correct=%t trail=%t, want false true", o.Correct, o.TrailVerified)
	}
	rep := &report{Outcome: o, Metrics: map[string]value{}}
	p := &phase{attempted: 4, elapsed: 1}
	p.summarize(slices.Clone(c.samples.s), 2)
	if fmt.Sprint(p.kindN, p.kindP50) != "[2 2] [1000 2000]" || p.p50 != 2000 || p.p99 != failedLatency {
		t.Errorf("summary: n %v p50 %v, all p50 %d p99 %d", p.kindN, p.kindP50, p.p50, p.p99)
	}
	endToEndMetrics(rep, []*round{{p: p}}, []kindDef{{"read_allowed", 1}, {"read_refused", 1}}, []float64{0.1})
	if v := rep.Metrics["fail_share"].Value; v != 0.5 {
		t.Errorf("fail_share = %v, want 0.5", v)
	}
	if v := rep.Metrics["trail_verified"].Value; v != 1 {
		t.Errorf("trail_verified = %v, want 1", v)
	}

	ok := summarize(10, 0, 0, nil, nil, clean)
	if !ok.Correct || !ok.TrailVerified {
		t.Errorf("clean run: %+v", ok)
	}
	broken := trailResult{verify: audit.VerifyResult{Reason: "batch 3 sequence range [1,9] not increasing"}}
	o = summarize(10, 0, 0, nil, nil, broken)
	if !o.Correct || o.TrailVerified || !strings.Contains(o.TrailFault, "not increasing") {
		t.Errorf("broken trail must leave correct alone and report the fault: %+v", o)
	}
	o = summarize(10, 0, 0, nil, nil, trailResult{verify: audit.VerifyResult{OK: true}, conservation: errors.New("records 1 + dropped 0 != emitted 2")})
	if o.TrailVerified {
		t.Error("broken audit conservation passed the trail check")
	}
	o = summarize(10, 0, 0, nil, []error{errors.New("events: posted 3 != dispatched+dropped 2")}, clean)
	if o.Correct || o.TrailVerified {
		t.Errorf("a failed scenario check must fail both verdicts: %+v", o)
	}
}

func TestContractLine(t *testing.T) {
	rep := &report{Workload: "guard", Outcome: outcome{Attempted: 3, Correct: true}, Metrics: map[string]value{}}
	for _, d := range endToEnd {
		rep.Metrics[d.Name] = value{Value: 1.5, Unit: d.Unit}
	}
	line, err := contractLine(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]value
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if _, ok := got.Metrics[d.Name]; ok != d.Gated {
			t.Errorf("%s in contract line = %t, want %t", d.Name, ok, d.Gated)
		}
	}
	rep.Trace = 1
	if _, err := contractLine(rep); err == nil {
		t.Error("traced line built without the per-layer metrics")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	if quantile([]int64{1, 2, 3, 4}, 0.5) != 2 || quantile([]int64{1, 2, 3, 4}, 0.99) != 4 {
		t.Error("nearest-rank quantile")
	}
}

func TestJudge(t *testing.T) {
	thr, _ := findDef("throughput_ops_s")
	lat, _ := findDef("latency_p50_us")
	if _, differs, _ := judge(thr, 100, 120); differs {
		t.Error("20% throughput change flagged under a 25% bound")
	}
	if _, differs, v := judge(thr, 100, 70); !differs || !strings.HasPrefix(v, "WORSE") {
		t.Errorf("30%% throughput drop: %s", v)
	}
	if _, differs, v := judge(lat, 100, 70); !differs || !strings.HasPrefix(v, "BETTER") {
		t.Errorf("30%% latency drop: %s", v)
	}
	share, _ := findDef("audit.cpu_share")
	if _, differs, _ := judge(share, 0.1, 0.5); differs {
		t.Error("an unbounded per-layer metric was flagged")
	}
}

func TestSampleBufGrowsOffHeap(t *testing.T) {
	var b sampleBuf
	defer b.free()
	for i := 0; i < 3*minSamples; i++ {
		b.add(uint64(i))
	}
	b.addAll([]uint64{7, 8, 9})
	if len(b.s) != 3*minSamples+3 || b.s[minSamples] != minSamples || b.s[len(b.s)-1] != 9 {
		t.Fatalf("len %d, s[%d]=%d, last %d", len(b.s), minSamples, b.s[minSamples], b.s[len(b.s)-1])
	}
	b.reset()
	b.reserve(5 * minSamples)
	if len(b.s) != 0 || cap(b.s) < 5*minSamples {
		t.Fatalf("after reset+reserve: len %d cap %d", len(b.s), cap(b.s))
	}
}
