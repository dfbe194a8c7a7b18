package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"mpj/internal/audit"
	"mpj/internal/core"
	"mpj/internal/events"
	"mpj/internal/load"
	"mpj/internal/objspace"
	"mpj/internal/playground"
	"mpj/internal/vfs"
	"mpj/internal/vm"
)

const (
	// clients is the closed loop's size: one terminal user per CPU of
	// the 2-CPU host the baselines were taken on, each waiting for its
	// command to finish before typing the next.
	clients = 2
	// roundSeconds is the measured length of one round. A run is
	// several rounds, each on a freshly booted platform, and reports
	// medians over them: the audit trail lives in memory and grows
	// with every op, so one long round drifts slower as it ages, and
	// rounds of a fixed age measure the same thing every time.
	roundSeconds = 1
	// warmup lets templates, caches and pools fill before timing.
	warmup = 250 * time.Millisecond
	// stallGrace is how long past a round's end a blocked op may wait
	// for its reply before it gives up as failed.
	stallGrace = 20 * time.Second
	// runBudget bounds the whole process: a run that hangs exits
	// non-zero instead of stalling the caller.
	runBudget = 170 * time.Second
	// profileHz is the traced rounds' CPU sampling rate (the default
	// 100 Hz is too coarse for shares of a few percent).
	profileHz = 500
)

// env is one booted platform with a workload's state on it.
type env struct {
	*load.Env
	checks    []func() error    // scenario conservation checks, run after the load
	closers   []func()          // teardown beyond platform shutdown, run last-first
	stats     []func(*statSnap) // counters of workload-owned services
	stall     chan struct{}     // closed when waiting ops must give up
	stallOnce sync.Once
}

// boot builds a fresh platform with the workload on it.
func boot(cfg config) (*env, []opFunc, error) {
	le, err := load.NewEnv("perfbench", population, clients, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	e := &env{Env: le, stall: make(chan struct{})}
	ops, err := cfg.workload.setup(e)
	if err != nil {
		e.teardown()
		return nil, nil, fmt.Errorf("%s set-up: %w", cfg.workload.Name, err)
	}
	return e, ops, nil
}

func (e *env) teardown() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.Close()
}

// statSnap is every public counter the per-layer metrics difference.
type statSnap struct {
	audit     audit.Stats
	vm        vm.Stats
	ev        events.Stats
	tx        objspace.TxStats
	quota     core.QuotaStats
	templates int64
	pg        playground.Stats
	mem       runtime.MemStats
	cpu       time.Duration // process user+system time
}

func (e *env) snap() statSnap {
	s := statSnap{
		audit:     e.P.Audit().Stats(),
		vm:        e.P.VM().Stats(),
		ev:        e.P.Display().Stats(),
		tx:        e.P.Objects().TxStats(),
		quota:     e.P.QuotaStats(),
		templates: e.P.TemplateBuilds(),
	}
	for _, f := range e.stats {
		f(&s)
	}
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// phase is one closed-loop measurement window, summarised: latency
// quantiles are kept, the samples behind them are not.
type phase struct {
	attempted, failed, wrong int64
	firstErr                 error
	elapsed                  float64 // seconds
	p50, p90, p99            uint64  // ns, over all ops
	kindP50                  []uint64
	kindN                    []int
	before, after            statSnap
}

func (p *phase) throughput() float64 { return ratio(float64(p.attempted), p.elapsed) }

// cpuPerOp is the process CPU time the phase used per op, in µs.
func (p *phase) cpuPerOp() float64 {
	return ratio(float64(p.after.cpu-p.before.cpu)/1e3, float64(p.attempted))
}

// drive runs every client's closed loop for d and summarises the
// result, sorting the samples in scratch.
func (e *env) drive(clients []*client, ops []opFunc, kinds []kindDef, d time.Duration, scratch *sampleBuf) *phase {
	stallTimer := time.AfterFunc(d+stallGrace, func() { e.stallOnce.Do(func() { close(e.stall) }) })
	defer stallTimer.Stop()
	for _, c := range clients {
		c.samples.reset()
		c.attempted, c.failed, c.wrong, c.firstErr = 0, 0, 0, nil
	}
	p := &phase{before: e.snap()}
	start := nanotime()
	deadline := start + int64(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				k, u := c.gen.next()
				c.op++
				if c.tr != nil {
					c.tr.kind = kinds[k].Name
				}
				t0 := nanotime()
				err := ops[k](c, u)
				t1 := nanotime()
				c.record(k, t0, t1, err)
				if c.tr != nil {
					c.tr.keep(span{Op: c.op, Name: kinds[k].Name, Start: t0, End: t1})
				}
				if t1 >= deadline {
					c.end = t1
					return
				}
			}
		}(c)
	}
	wg.Wait()
	p.after = e.snap()
	end := start
	scratch.reset()
	for _, c := range clients {
		end = max(end, c.end)
		p.attempted += c.attempted
		p.failed += c.failed
		p.wrong += c.wrong
		if p.firstErr == nil {
			p.firstErr = c.firstErr
		}
		scratch.addAll(c.samples.s)
	}
	p.elapsed = float64(end-start) / 1e9
	p.summarize(scratch.s, len(kinds))
	return p
}

// summarize sorts packed kind<<56|latency samples in place, which
// groups them by kind in latency order, takes each kind's median, then
// strips the kinds and sorts again for the all-op quantiles.
func (p *phase) summarize(s []uint64, kinds int) {
	slices.Sort(s)
	p.kindP50, p.kindN = make([]uint64, kinds), make([]int, kinds)
	lo := 0
	for k := 0; k < kinds; k++ {
		n := sort.Search(len(s)-lo, func(i int) bool { return int(s[lo+i]>>56) > k })
		p.kindN[k] = n
		p.kindP50[k] = quantile(s[lo:lo+n], 0.5) & failedLatency
		lo += n
	}
	for i := range s {
		s[i] &= failedLatency
	}
	slices.Sort(s)
	p.p50, p.p90, p.p99 = quantile(s, 0.5), quantile(s, 0.9), quantile(s, 0.99)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// round is one boot-to-teardown measurement and its checks.
type round struct {
	traced     bool
	setup      float64 // seconds
	p          *phase
	checks     []error
	leaked     int // inodes left outside the audit trail
	trail      trailResult
	syncMs     float64
	verifyMs   float64
	pendingMax int
	profile    []byte
}

// runRound boots a platform, warms it, measures one round, then runs
// the scenario checks and the full audit-trail verification.
func runRound(cfg config, clients []*client, d time.Duration, traced bool, scratch *sampleBuf) (*round, error) {
	runtime.GC() // start each round from the same heap, untimed
	r := &round{traced: traced}
	t0 := time.Now()
	e, ops, err := boot(cfg)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(t0).Seconds()
	defer e.teardown()

	kinds := cfg.workload.Kinds
	warm := e.drive(clients, ops, kinds, warmup, scratch)
	expect := int(warm.throughput() * d.Seconds() * 1.5)
	for _, c := range clients {
		c.samples.reserve(expect)
	}
	scratch.reserve(expect)
	inodes := liveInodes(e.P.FS())
	log := e.P.Audit()
	if !traced {
		r.p = e.drive(clients, ops, kinds, d, scratch)
	} else {
		for _, c := range clients {
			c.tr = c.trace
		}
		var prof bytes.Buffer
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		stop := make(chan struct{})
		sampled := make(chan int)
		go func() { sampled <- samplePending(log, stop) }()
		r.p = e.drive(clients, ops, kinds, d, scratch)
		pprof.StopCPUProfile()
		close(stop)
		r.pendingMax = <-sampled
		r.profile = prof.Bytes()
		for _, c := range clients {
			c.tr = nil
		}
	}

	t := nanotime()
	log.Sync()
	r.syncMs = float64(nanotime()-t) / 1e6
	for _, check := range e.checks {
		if err := check(); err != nil {
			r.checks = append(r.checks, err)
		}
	}
	r.leaked = liveInodes(e.P.FS()) - inodes
	log.Sync()
	if st := log.Stats(); st.Records+st.Dropped != st.Emitted {
		r.trail.conservation = fmt.Errorf("audit: records %d + dropped %d != emitted %d", st.Records, st.Dropped, st.Emitted)
	}
	t = nanotime()
	r.trail.verify, r.trail.verifyErr = log.VerifyWith(audit.VerifyOptions{Full: true})
	r.verifyMs = float64(nanotime()-t) / 1e6
	return r, nil
}

// rounds splits a run of the given length into rounds of about
// roundSeconds; a traced run alternates untraced and traced rounds
// and needs at least one of each.
func rounds(seconds float64, traced bool) (n int, each time.Duration) {
	n = max(1, int(math.Round(seconds/roundSeconds)))
	if traced {
		n = max(2, n)
	}
	return n, time.Duration(seconds / float64(n) * float64(time.Second))
}

// run performs one benchmark run and builds its report.
func run(cfg config) (*report, error) {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{
			id:    i,
			gen:   newGen(cfg.seed, i, cfg.workload.Kinds),
			oprng: rand.New(rand.NewSource(cfg.seed<<8 ^ int64(i+1))),
			op:    uint64(i) << 48,
			guard: make(chan guardReply, 1),
		}
		if cfg.trace {
			cs[i].trace = newTracer()
		}
	}
	var scratch sampleBuf
	defer func() {
		scratch.free()
		for _, c := range cs {
			c.samples.free()
			if c.trace != nil {
				for i := range c.trace.durs {
					c.trace.durs[i].free()
				}
			}
		}
	}()
	n, each := rounds(cfg.seconds, cfg.trace)
	var rs []*round
	for i := 0; i < n; i++ {
		r, err := runRound(cfg, cs, each, cfg.trace && i%2 == 1, &scratch)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		rs = append(rs, r)
	}

	var attempted, failed, wrong int64
	var firstErr error
	var checks []error
	trail := trailResult{verify: audit.VerifyResult{OK: true}}
	var setups []float64
	var untraced, traced []*round
	for _, r := range rs {
		attempted, failed, wrong = attempted+r.p.attempted, failed+r.p.failed, wrong+r.p.wrong
		if firstErr == nil {
			firstErr = r.p.firstErr
		}
		checks = append(checks, r.checks...)
		if trail.verify.OK && trail.verifyErr == nil && trail.conservation == nil {
			trail = r.trail
		}
		setups = append(setups, r.setup)
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	rep := &report{
		Workload: cfg.workload.Name, Seed: cfg.seed, Trace: boolInt(cfg.trace), Clients: clients,
		Seconds: cfg.seconds, Rounds: n, Host: hostInfo(),
		Outcome: summarize(attempted, failed, wrong, firstErr, checks, trail),
		Metrics: map[string]value{},
	}
	endToEndMetrics(rep, untraced, cfg.workload.Kinds, setups)
	if cfg.trace {
		if err := layerMetrics(rep, cs, &scratch, rs, untraced, traced); err != nil {
			return nil, err
		}
		var prof [][]byte
		for _, r := range traced {
			prof = append(prof, r.profile)
		}
		if err := writeTrace(cfg, cs, prof); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// liveInodes counts the file tree outside the audit trail's segment
// directory, which grows with every committed batch by design.
func liveInodes(fs *vfs.FS) int {
	n := 0
	_ = fs.Walk("/", func(path string, _ vfs.FileInfo) error {
		if path != core.AuditDir && !strings.HasPrefix(path, core.AuditDir+"/") {
			n++
		}
		return nil
	})
	return n
}

// samplePending polls the audit log's pending-record count until stop
// closes and returns the highest value seen.
func samplePending(log *audit.Log, stop <-chan struct{}) int {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	hi := 0
	for {
		select {
		case <-stop:
			return hi
		case <-tick.C:
			hi = max(hi, log.Stats().Pending)
		}
	}
}

// medianOver is the median across rounds of f.
func medianOver(rs []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEndMetrics fills the user-visible metrics from the untraced
// rounds: throughput and latencies are medians over rounds, with the
// sample count of all rounds together.
func endToEndMetrics(rep *report, rs []*round, kinds []kindDef, setups []float64) {
	m := rep.Metrics
	us := func(ns uint64) float64 { return float64(ns) / 1e3 }
	var ops, alloc float64
	for _, r := range rs {
		ops += float64(r.p.attempted)
		alloc += float64(r.p.after.mem.TotalAlloc - r.p.before.mem.TotalAlloc)
	}
	n := int(ops)
	m["throughput_ops_s"] = value{Value: medianOver(rs, func(r *round) float64 { return r.p.throughput() }), Unit: "1/s", N: n}
	m["cpu_us_per_op"] = value{Value: medianOver(rs, func(r *round) float64 { return r.p.cpuPerOp() }), Unit: "us", N: n}
	m["latency_p50_us"] = value{Value: medianOver(rs, func(r *round) float64 { return us(r.p.p50) }), Unit: "us", N: n}
	m["latency_p90_us"] = value{Value: medianOver(rs, func(r *round) float64 { return us(r.p.p90) }), Unit: "us", N: n}
	m["latency_p99_us"] = value{Value: medianOver(rs, func(r *round) float64 { return us(r.p.p99) }), Unit: "us", N: n}
	for k, kd := range kinds {
		kn := 0
		for _, r := range rs {
			kn += r.p.kindN[k]
		}
		m[kd.Name+"_p50_us"] = value{Value: medianOver(rs, func(r *round) float64 { return us(r.p.kindP50[k]) }), Unit: "us", N: kn}
	}
	m["fail_share"] = value{Value: ratio(float64(rep.Outcome.Failed), float64(rep.Outcome.Attempted)), Unit: "share", N: int(rep.Outcome.Attempted)}
	m["trail_verified"] = value{Value: float64(boolInt(rep.Outcome.TrailVerified)), Unit: "bool"}
	m["alloc_bytes_per_op"] = value{Value: ratio(alloc, ops), Unit: "B/op", N: n}
	m["setup_s"] = value{Value: median(setups), Unit: "s", N: len(setups)}
}

// layerMetrics fills the per-layer metrics from the traced rounds:
// span medians, public Stats() deltas, the CPU profile's shares and
// the trail check's cost.
func layerMetrics(rep *report, clients []*client, scratch *sampleBuf, all, untraced, traced []*round) error {
	m := rep.Metrics
	spanMetrics(clients, scratch, m)
	var d counterDelta
	for _, r := range traced {
		d.add(r.p)
	}
	d.fill(m)
	leaked, faults, batches, pending := 0, 0, 0, 0
	for _, r := range all {
		leaked += r.leaked
		faults += len(r.trail.verify.Faults)
		batches += r.trail.verify.Batches
	}
	for _, r := range traced {
		pending = max(pending, r.pendingMax)
	}
	m["vfs.inodes_leaked"] = value{Value: float64(leaked), Unit: "count"}
	m["audit.fault_share"] = value{Value: ratio(float64(faults), float64(batches)), Unit: "share", N: batches}
	m["audit.pending_max"] = value{Value: float64(pending), Unit: "count"}
	m["audit.sync_ms"] = value{Value: medianOver(traced, func(r *round) float64 { return r.syncMs }), Unit: "ms", N: len(traced)}
	m["audit.verify_ms"] = value{Value: medianOver(traced, func(r *round) float64 { return r.verifyMs }), Unit: "ms", N: len(traced)}
	thr := func(r *round) float64 { return r.p.throughput() }
	m["trace.overhead_share"] = value{Value: 1 - ratio(medianOver(traced, thr), medianOver(untraced, thr)), Unit: "share"}

	var samples []cpuSample
	for _, r := range traced {
		s, err := decodeProfile(r.profile)
		if err != nil {
			return err
		}
		samples = append(samples, s...)
	}
	shares, total := attribute(samples)
	for k, v := range shares {
		m[k] = value{Value: v, Unit: "share", N: int(total)}
	}
	return nil
}

// counterDelta sums public counter deltas over traced rounds.
type counterDelta struct {
	ops, emitted, records, batches, dropped  float64
	threads, groups, templates, quotaRejects float64
	pgSubmitted, pgRejected, pgFailed        float64
	posted, evDropped, evRejected            float64
	txAttempts, txAborts, escalations, gcs   float64
}

func (d *counterDelta) add(p *phase) {
	b, a := p.before, p.after
	d.ops += float64(p.attempted)
	d.emitted += float64(a.audit.Emitted - b.audit.Emitted)
	d.records += float64(a.audit.Records - b.audit.Records)
	d.batches += float64(a.audit.Batches - b.audit.Batches)
	d.dropped += float64(a.audit.Dropped - b.audit.Dropped)
	d.threads += float64(a.vm.ThreadsSpawned - b.vm.ThreadsSpawned)
	d.groups += float64(a.vm.GroupsCreated - b.vm.GroupsCreated)
	d.templates += float64(a.templates - b.templates)
	qa, qb := a.quota, b.quota
	d.quotaRejects += float64(qa.AppsRejected + qa.ThreadsRejected + qa.EventsRejected + qa.AuditRejected -
		qb.AppsRejected - qb.ThreadsRejected - qb.EventsRejected - qb.AuditRejected)
	d.pgSubmitted += float64(a.pg.Submitted - b.pg.Submitted)
	d.pgRejected += float64(a.pg.Rejected - b.pg.Rejected)
	d.pgFailed += float64(a.pg.Failed - b.pg.Failed)
	d.posted += float64(a.ev.Posted - b.ev.Posted)
	d.evDropped += float64(a.ev.Dropped - b.ev.Dropped)
	d.evRejected += float64(a.ev.Rejected - b.ev.Rejected)
	d.txAttempts += float64(a.tx.Attempts - b.tx.Attempts)
	d.txAborts += float64(a.tx.Aborts - b.tx.Aborts)
	d.escalations += float64(a.tx.Escalations - b.tx.Escalations)
	d.gcs += float64(a.mem.NumGC - b.mem.NumGC)
}

func (d *counterDelta) fill(m map[string]value) {
	set := func(name string, v float64, unit string) { m[name] = value{Value: v, Unit: unit} }
	set("audit.batch_fill", ratio(d.records, d.batches), "records/batch")
	set("audit.records_per_op", ratio(d.emitted, d.ops), "records/op")
	set("audit.drop_share", ratio(d.dropped, d.emitted), "share")
	set("vm.threads_per_op", ratio(d.threads, d.ops), "threads/op")
	set("vm.groups_per_op", ratio(d.groups, d.ops), "groups/op")
	set("classes.template_builds", d.templates, "count")
	set("core.quota_rejected", d.quotaRejects, "count")
	set("playground.rejected_share", ratio(d.pgRejected, d.pgSubmitted), "share")
	set("playground.failed", d.pgFailed, "count")
	set("events.dropped_share", ratio(d.evDropped, d.posted), "share")
	set("events.rejected", d.evRejected, "count")
	set("objspace.abort_ratio", ratio(d.txAborts, d.txAttempts), "share")
	set("objspace.escalations", d.escalations, "count")
	set("runtime.gc_cycles", d.gcs, "count")
}
