// Command mvmbench regenerates every experiment of EXPERIMENTS.md: for
// each figure and quantitative claim of the paper it runs the workload
// on this machine and prints the table rows (the `go test -bench` form
// of the same measurements lives in bench_test.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"mpj"
	"mpj/internal/applet"
	"mpj/internal/audit"
	"mpj/internal/classes"
	"mpj/internal/core"
	"mpj/internal/events"
	"mpj/internal/load"
	"mpj/internal/netsim"
	"mpj/internal/objspace"
	"mpj/internal/remote"
	"mpj/internal/security"
	"mpj/internal/streams"
	"mpj/internal/vm"
)

// echoChildEnv marks the re-exec'ed process as the E6 echo child.
const echoChildEnv = "MPJ_ECHO_CHILD"

func main() {
	if os.Getenv(echoChildEnv) == "1" {
		echoChild()
		return
	}
	iters := flag.Int("iters", 2000, "iterations per measurement")
	flag.BoolVar(&jsonMode, "json", false, "emit results as a JSON document on stdout instead of tables")
	flag.Parse()
	if err := run(*iters); err != nil {
		fmt.Fprintln(os.Stderr, "mvmbench:", err)
		os.Exit(1)
	}
}

// echoChild is the cross-process ping-pong peer.
func echoChild() {
	buf := make([]byte, 1)
	for {
		if _, err := os.Stdin.Read(buf); err != nil {
			return
		}
		if _, err := os.Stdout.Write(buf); err != nil {
			return
		}
	}
}

// The measurement substrate lives in internal/load (shared with
// cmd/mvmload): load.Measure is the closed-loop averaging primitive
// and rep collects sections/rows for table or JSON output (committed
// as BENCH_PR9.json by `make bench-json`).
var (
	jsonMode bool
	rep      *load.Report
)

// measure runs fn iters times and returns the average duration.
func measure(iters int, fn func()) time.Duration { return load.Measure(iters, fn) }

// measureBest is the low-noise variant for sections that assert a
// ratio between two paths (§E-launch): best-of-8-batches average.
func measureBest(iters int, fn func()) time.Duration { return load.MeasureBest(iters, 8, fn) }

// row appends a measurement to the current section.
func row(label string, value any) { rep.Row(label, value) }

// experiment is one registered section of the evaluation.
type experiment struct {
	id    string
	title string
	run   func(iters int) error
}

// experiments is the registered evaluation, in paper order. Each
// entry's function only emits rows; section identity lives here, so
// the harness — not each hand-rolled loop — owns ordering, titles,
// and the empty-section guard.
func experiments() []experiment {
	return []experiment{
		{"E1 (Figure 1)", "application launch/exit: one VM vs a fresh VM per application", e1},
		{"E-launch", "sealed application templates: templated vs cold launch, rebuild churn, admission quotas", eLaunch},
		{"E2/E4 (Figures 2 & 4)", "fast app's event latency while another app runs a 200µs callback", e2e4},
		{"E3 (Figure 3)", "thread spawn+join inside an application (group accounting)", e3},
		{"E5 (Figure 5)", "per-application System class reload vs delegated (shared) load", e5},
		{"E6 (Section 2)", "context switch: one round trip between two parties", e6},
		{"E7 (Section 2)", "IPC throughput: in-VM pipe vs OS pipe", e7},
		{"E8 (§5.3/§5.6)", "access-control cost: stack depth × policy kind", e8},
		{"E8-fast", "decision caching: cold vs cached, match cache, AddGrant invalidation", e8fast},
		{"E-audit", "audit emission: disabled / drained / saturated, and the access fast path", eAudit},
		{"E-vfs", "VFS: dentry cache, per-inode locks, contended I/O", eVFS},
		{"E-events", "event plane: lock-free routing, batched dispatch, contended posting", eEvents},
		{"E-netsim", "netsim: connection throughput, contended dial path", eNetsim},
		{"E9 (§6.3)", "applet fetch+verify+load+run cycle", e9},
		{"E10 (§6.1)", "shell pipeline launch+drain by stage count", e10},
		{"E11 (§5.2)", "login: authenticate + setUser + shell", e11},
		{"E12 (§8 extension)", "shared-object Mailbox handoff vs byte-pipe copy", e12},
		{"E13 (§8 extension)", "cross-VM rexec vs local exec", e13},
		{"E-objspace", "transactional object space: sharded records, optimistic commit, adaptive escalation", eObjspace},
		{"E-remote", "remote playground: pool dispatch, UI event proxy, worker failover", eRemote},
	}
}

func run(iters int) error {
	rep = load.NewReport(os.Stdout, jsonMode)
	if !jsonMode {
		fmt.Printf("mvmbench: reproducing the evaluation of Balfanz & Gong (ICDCS 1998)\n")
		fmt.Printf("iterations per measurement: %d\n", iters)
	}
	for _, ex := range experiments() {
		rep.Section(ex.id, ex.title)
		if err := ex.run(iters); err != nil {
			return err
		}
	}
	// Guard against silently-empty sections: a registered experiment
	// that emits no samples means the run is not measuring what the
	// committed JSON claims it does, so fail loudly (bench-json-smoke
	// runs this in CI).
	if err := rep.CheckNonEmpty(); err != nil {
		return err
	}
	// The audit-batching rows are cited by EXPERIMENTS.md and consumed
	// by tooling diffing committed BENCH_*.json runs; a refactor that
	// drops them must fail here (bench-json-smoke runs this in CI).
	if err := rep.RequireRows("E-audit",
		"drain per record, merkle batch",
		"Prove (50k-record trail",
		"VerifyProof, standalone",
		"inclusion proof hashes",
		"verify speedup, by-root vs full",
	); err != nil {
		return err
	}
	if jsonMode {
		return rep.EmitJSON(os.Stdout, "mvmbench", iters)
	}
	fmt.Println("\nall experiments complete")
	return nil
}

// standard boots a batteries-included platform.
func standard(name string) (*mpj.Platform, *mpj.AppletStore, error) {
	return mpj.NewStandardPlatform(mpj.StandardConfig{Name: name})
}

func e1(iters int) error {
	p, _, err := standard("e1")
	if err != nil {
		return err
	}
	defer p.Shutdown()
	if err := p.RegisterProgram(mpj.Program{Name: "noop", Main: func(*mpj.Context, []string) int { return 0 }}); err != nil {
		return err
	}
	inVM := measure(iters, func() {
		app, err := p.Exec(mpj.ExecSpec{Program: "noop"})
		if err != nil {
			panic(err)
		}
		app.WaitFor()
	})
	freshIters := iters / 20
	if freshIters < 10 {
		freshIters = 10
	}
	fresh := measure(freshIters, func() {
		fp, _, err := standard("fresh")
		if err != nil {
			panic(err)
		}
		if err := fp.RegisterProgram(mpj.Program{Name: "noop", Main: func(*mpj.Context, []string) int { return 0 }}); err != nil {
			panic(err)
		}
		app, err := fp.Exec(mpj.ExecSpec{Program: "noop"})
		if err != nil {
			panic(err)
		}
		app.WaitFor()
		fp.Shutdown()
	})
	row("launch+exit inside running VM", inVM)
	row("fresh VM per application (paper's baseline)", fresh)
	row("single-VM advantage", fmt.Sprintf("%.1fx", float64(fresh)/float64(inVM)))
	return nil
}

func e2e4(iters int) error {
	for _, mode := range []events.DispatchMode{events.SingleDispatcher, events.PerAppDispatcher} {
		lat, err := dispatcherLatency(mode)
		if err != nil {
			return err
		}
		row(mode.String()+" fast-event latency", lat)
	}
	return nil
}

func dispatcherLatency(mode events.DispatchMode) (time.Duration, error) {
	p, _, err := standard("e24")
	if err != nil {
		return 0, err
	}
	defer p.Shutdown()
	display := p.EnableDisplay(mode)

	const slowWork = 200 * time.Microsecond
	type winPair struct{ slow, fast *mpj.Window }
	wins := make(chan winPair, 1)
	fastWin := make(chan *mpj.Window, 1)
	fastDone := make(chan time.Time, 1)
	slowDone := make(chan struct{}, 1)

	busy := func(d time.Duration) {
		start := time.Now()
		for time.Since(start) < d {
		}
	}
	if err := p.RegisterProgram(mpj.Program{Name: "gui-slow", Main: func(ctx *mpj.Context, args []string) int {
		w, err := ctx.OpenWindow("slow")
		if err != nil {
			return 1
		}
		_ = w.AddListener("work", func(*mpj.Thread, mpj.Event) {
			busy(slowWork)
			slowDone <- struct{}{}
		})
		if _, err := ctx.Exec("gui-fast"); err != nil {
			return 1
		}
		wins <- winPair{slow: w, fast: <-fastWin}
		<-ctx.Thread().StopChan()
		return 0
	}}); err != nil {
		return 0, err
	}
	if err := p.RegisterProgram(mpj.Program{Name: "gui-fast", Main: func(ctx *mpj.Context, args []string) int {
		w, err := ctx.OpenWindow("fast")
		if err != nil {
			return 1
		}
		_ = w.AddListener("ping", func(*mpj.Thread, mpj.Event) { fastDone <- time.Now() })
		fastWin <- w
		<-ctx.Thread().StopChan()
		return 0
	}}); err != nil {
		return 0, err
	}
	alice, err := p.Users().Lookup("alice")
	if err != nil {
		return 0, err
	}
	app, err := p.Exec(mpj.ExecSpec{Program: "gui-slow", User: alice})
	if err != nil {
		return 0, err
	}
	pair := <-wins
	const rounds = 200
	var total time.Duration
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := display.Post(mpj.Event{Window: pair.slow.ID(), Component: "work", Kind: events.KindAction}); err != nil {
			return 0, err
		}
		if err := display.Post(mpj.Event{Window: pair.fast.ID(), Component: "ping", Kind: events.KindAction}); err != nil {
			return 0, err
		}
		total += (<-fastDone).Sub(start)
		<-slowDone
	}
	app.RequestExit(0)
	app.WaitFor()
	return total / rounds, nil
}

func e3(iters int) error {
	p, _, err := standard("e3")
	if err != nil {
		return err
	}
	defer p.Shutdown()
	ready := make(chan *mpj.Context, 1)
	if err := p.RegisterProgram(mpj.Program{Name: "host", Main: func(ctx *mpj.Context, args []string) int {
		ready <- ctx
		<-ctx.Thread().StopChan()
		return 0
	}}); err != nil {
		return err
	}
	app, err := p.Exec(mpj.ExecSpec{Program: "host"})
	if err != nil {
		return err
	}
	ctx := <-ready
	d := measure(iters, func() {
		th, err := ctx.SpawnThread("w", true, func(*mpj.Context) {})
		if err != nil {
			panic(err)
		}
		th.Join()
	})
	row("spawn+join one application thread", d)
	app.RequestExit(0)
	app.WaitFor()
	return nil
}

func e5(iters int) error {
	p, _, err := standard("e5")
	if err != nil {
		return err
	}
	defer p.Shutdown()
	boot := p.BootLoader()
	if _, err := boot.Load(nil, core.SystemClassName); err != nil {
		return err
	}
	n := 0
	reload := measure(iters, func() {
		n++
		l, err := classes.NewChildLoader(fmt.Sprintf("r%d", n), boot, []string{core.SystemClassName})
		if err != nil {
			panic(err)
		}
		if _, err := l.Load(nil, core.SystemClassName); err != nil {
			panic(err)
		}
	})
	delegated := measure(iters, func() {
		n++
		l, err := classes.NewChildLoader(fmt.Sprintf("d%d", n), boot, nil)
		if err != nil {
			panic(err)
		}
		if _, err := l.Load(nil, core.SystemClassName); err != nil {
			panic(err)
		}
	})
	row("reload System in fresh app loader", reload)
	row("delegated (shared) load", delegated)
	row("reload overhead", fmt.Sprintf("%.1fx", float64(reload)/float64(delegated)))
	return nil
}

func e6(iters int) error {
	// (a) two applications in ONE VM over in-VM pipes.
	p, _, err := standard("e6")
	if err != nil {
		return err
	}
	defer p.Shutdown()
	if err := p.RegisterProgram(mpj.Program{Name: "echo-loop", Main: func(ctx *mpj.Context, args []string) int {
		buf := make([]byte, 1)
		for {
			if _, err := ctx.Stdin().Read(buf); err != nil {
				return 0
			}
			if _, err := ctx.Stdout().Write(buf); err != nil {
				return 0
			}
		}
	}}); err != nil {
		return err
	}
	toAppR, toAppW := streams.NewPipe(64)
	fromAppR, fromAppW := streams.NewPipe(64)
	app, err := p.Exec(mpj.ExecSpec{
		Program: "echo-loop",
		Stdin:   streams.NewReadStream("in", streams.OwnerSystem, toAppR),
		Stdout:  streams.NewWriteStream("out", streams.OwnerSystem, fromAppW),
	})
	if err != nil {
		return err
	}
	buf := []byte{1}
	inVM := measure(iters, func() {
		if _, err := toAppW.Write(buf); err != nil {
			panic(err)
		}
		if _, err := io.ReadFull(fromAppR, buf); err != nil {
			panic(err)
		}
	})
	_ = toAppW.Close()
	app.WaitFor()
	row("two apps, one VM (in-VM pipe)", inVM)

	// (b) kernel-mediated OS pipe, one process.
	toR, toW, err := os.Pipe()
	if err != nil {
		return err
	}
	fromR, fromW, err := os.Pipe()
	if err != nil {
		return err
	}
	go func() {
		b := make([]byte, 1)
		for {
			if _, err := toR.Read(b); err != nil {
				return
			}
			if _, err := fromW.Write(b); err != nil {
				return
			}
		}
	}()
	osPipe := measure(iters, func() {
		if _, err := toW.Write(buf); err != nil {
			panic(err)
		}
		if _, err := io.ReadFull(fromR, buf); err != nil {
			panic(err)
		}
	})
	_ = toW.Close()
	_ = fromR.Close()
	row("OS pipe, same process", osPipe)

	// (c) two OS processes — the "launch multiple JVMs" baseline.
	self, err := os.Executable()
	if err != nil {
		row("two OS processes", "skipped: "+err.Error())
		return nil
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), echoChildEnv+"=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		row("two OS processes", "skipped: "+err.Error())
		return nil
	}
	twoProc := measure(iters, func() {
		if _, err := stdin.Write(buf); err != nil {
			panic(err)
		}
		if _, err := io.ReadFull(stdout, buf); err != nil {
			panic(err)
		}
	})
	_ = stdin.Close()
	_ = cmd.Wait()
	row("two OS processes (multi-VM baseline)", twoProc)
	row("single-VM vs two processes", fmt.Sprintf("%.1fx", float64(twoProc)/float64(inVM)))
	return nil
}

func e7(iters int) error {
	for _, size := range []int{64, 4096, 32768} {
		msg := make([]byte, size)
		got := make([]byte, size)

		r, w := streams.NewPipe(size)
		inVM := measure(iters, func() {
			if _, err := w.Write(msg); err != nil {
				panic(err)
			}
			if _, err := io.ReadFull(r, got); err != nil {
				panic(err)
			}
		})
		osR, osW, err := os.Pipe()
		if err != nil {
			panic(err)
		}
		osPipe := measure(iters, func() {
			if _, err := osW.Write(msg); err != nil {
				panic(err)
			}
			if _, err := io.ReadFull(osR, got); err != nil {
				panic(err)
			}
		})
		_ = osR.Close()
		_ = osW.Close()
		mbps := func(d time.Duration) string {
			return fmt.Sprintf("%8.1f MB/s", float64(size)/d.Seconds()/1e6)
		}
		row(fmt.Sprintf("%6dB  in-VM %v / OS %v", size, inVM, osPipe),
			fmt.Sprintf("in-VM %s   OS %s", mbps(inVM), mbps(osPipe)))
	}
	return nil
}

func e8(iters int) error {
	pol := security.MustParsePolicy(`
grant codeBase "file:/local/-"  { permission file "/data/-", "read"; };
grant codeBase "file:/userish/-" { permission user; };
grant user "alice" { permission file "/data/-", "read"; };
`)
	codeDomain := pol.DomainFor("tool", security.NewCodeSource("file:/local/tool"))
	userDomain := pol.DomainFor("utool", security.NewCodeSource("file:/userish/tool"))
	perm := security.NewFilePermission("/data/file", "read")

	v := vm.New(vm.Config{IdlePolicy: vm.StayOnIdle, NoBootThreads: true})
	defer v.Exit(0)

	runCheck := func(depth int, domain *security.ProtectionDomain, bindUser, privileged bool) time.Duration {
		result := make(chan time.Duration, 1)
		th, err := v.SpawnThread(vm.ThreadSpec{Group: v.MainGroup(), Name: "m", Run: func(t *vm.Thread) {
			if bindUser {
				security.BindUserPermissions(t, "alice", pol.PermissionsForUser("alice"))
			}
			for i := 0; i < depth; i++ {
				t.PushFrame(vm.Frame{Class: "C", Domain: domain})
			}
			if privileged {
				t.MarkTopFramePrivileged()
			}
			result <- measure(iters, func() {
				if err := security.CheckPermission(t, perm); err != nil {
					panic(err)
				}
			})
		}})
		if err != nil {
			panic(err)
		}
		th.Join()
		return <-result
	}
	for _, depth := range []int{1, 4, 16, 64} {
		cs := runCheck(depth, codeDomain, false, false)
		ub := runCheck(depth, userDomain, true, false)
		row(fmt.Sprintf("depth %2d  code-source / user-based", depth),
			fmt.Sprintf("%v / %v", cs, ub))
	}
	row("depth 64 with doPrivileged at top", runCheck(64, codeDomain, false, true))
	return nil
}

// e8fast isolates the layers of the access-control fast path
// (EXPERIMENTS.md §E8-fast): cold vs cached decisions, the policy
// match cache, and runtime grant delegation invalidating a cached
// denial.
func e8fast(iters int) error {
	// Cold vs warm collection implication: a fresh collection per
	// query pays for sealing the typed index; a warm one answers from
	// the decision memo.
	perms := make([]security.Permission, 16)
	for i := range perms {
		perms[i] = security.NewFilePermission(fmt.Sprintf("/data/%d/-", i), "read")
	}
	probe := security.NewFilePermission("/data/8/x", "read")
	cold := measure(iters, func() {
		if !security.NewPermissions(perms...).Implies(probe) {
			panic("denied")
		}
	})
	warm16 := security.NewPermissions(perms...)
	warm := measure(iters, func() {
		if !warm16.Implies(probe) {
			panic("denied")
		}
	})
	row("Implies, 16 perms  cold / cached", fmt.Sprintf("%v / %v", cold, warm))

	// Policy evaluation with the generation-scoped match cache: the
	// cost paid per class definition when the same code source loads
	// many classes.
	pol := security.NewPolicy()
	for i := 0; i < 512; i++ {
		pol.AddGrant(&security.Grant{
			CodeBase: fmt.Sprintf("file:/apps/app%d", i),
			Perms:    []security.Permission{security.NewFilePermission(fmt.Sprintf("/data/%d/-", i), "read")},
		})
	}
	cs := security.NewCodeSource("file:/apps/app256")
	warmMatch := measure(iters, func() {
		if pol.PermissionsForCode(cs).Len() != 1 {
			panic("wrong match count")
		}
	})
	row("PermissionsForCode, 512 grants, warm cache", warmMatch)

	// Runtime delegation: a cached denial must be lifted by AddGrant
	// (generation-counter invalidation), at a cost comparable to one
	// cold check.
	d := pol.DomainFor("late", security.NewCodeSource("file:/apps/late"))
	if d.Implies(probe) {
		panic("unexpected grant")
	}
	pol.AddGrant(&security.Grant{
		CodeBase: "file:/apps/late",
		Perms:    []security.Permission{security.NewFilePermission("/data/8/-", "read")},
	})
	if !d.Implies(probe) {
		panic("AddGrant not observed by cached domain")
	}
	row("AddGrant invalidation observed by cached domain", "ok")
	return nil
}

// eAudit measures the kernel audit pipeline (EXPERIMENTS.md
// §E-audit): the per-event emission cost with the category disabled
// (one atomic mask load), enabled with a live drainer, and saturated
// (rings full, drop-oldest), plus the E8-fast guard — CheckPermission
// with an audit log attached but CatAccess off must cost the same as
// the log-free fast path.
func eAudit(iters int) error {
	const batch = 1024
	ev := audit.Event{Cat: audit.CatShell, Verb: "bench", User: "alice", Detail: "payload"}

	// (a) Category disabled: the emission site's only cost. (Config.Mask
	// 0 means DefaultMask, so clear it explicitly.)
	off := audit.New(audit.Config{Store: audit.NewMemStore()})
	off.SetMask(0)
	disabled := measure(iters, func() {
		for i := 0; i < batch; i++ {
			off.Emit(ev)
		}
	}) / batch
	row("Emit, category disabled", disabled)

	// (b) Enabled with the drainer keeping up: steady-state logging.
	l := audit.New(audit.Config{Store: audit.NewMemStore(), Mask: audit.CatShell})
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() { defer close(drained); l.Run(stop) }()
	enabled := measure(iters, func() {
		for i := 0; i < batch; i++ {
			l.Emit(ev)
		}
	}) / batch
	close(stop)
	<-drained
	row("Emit, enabled, drainer keeping up", enabled)
	res, err := l.Verify()
	if err != nil {
		return err
	}
	if !res.OK {
		return fmt.Errorf("audit chain broken after bench: %+v", res)
	}
	row("hash chain verify", fmt.Sprintf("%d records / %d segments OK", res.Records, res.Segments))

	// (c) Saturated: no drainer, one small ring, pure drop-oldest path.
	sat := audit.New(audit.Config{Store: audit.NewMemStore(), Mask: audit.CatShell,
		Shards: 1, ShardCap: 64})
	saturated := measure(iters, func() {
		for i := 0; i < batch; i++ {
			sat.Emit(ev)
		}
	}) / batch
	row("Emit, saturated (drop-oldest)", saturated)
	row("events dropped under saturation", sat.Stats().Dropped)

	// (d) E8-fast guard: attaching a quiet log must not tax the
	// access-control fast path (allowed checks, CatAccess off).
	pol := security.MustParsePolicy(`grant codeBase "file:/local/-" { permission file "/data/-", "read"; };`)
	dom := pol.DomainFor("tool", security.NewCodeSource("file:/local/tool"))
	perm := security.NewFilePermission("/data/file", "read")
	check := func(withLog bool) time.Duration {
		v := vm.New(vm.Config{IdlePolicy: vm.StayOnIdle, NoBootThreads: true})
		defer v.Exit(0)
		if withLog {
			v.SetAuditLog(audit.New(audit.Config{Store: audit.NewMemStore()}))
		}
		result := make(chan time.Duration, 1)
		th, err := v.SpawnThread(vm.ThreadSpec{Group: v.MainGroup(), Name: "m", Run: func(t *vm.Thread) {
			for i := 0; i < 16; i++ {
				t.PushFrame(vm.Frame{Class: "C", Domain: dom})
			}
			result <- measure(iters, func() {
				if err := security.CheckPermission(t, perm); err != nil {
					panic(err)
				}
			})
		}})
		if err != nil {
			panic(err)
		}
		th.Join()
		return <-result
	}
	base := check(false)
	guarded := check(true)
	row("CheckPermission depth 16, no audit log", base)
	row("CheckPermission depth 16, log attached, access off", guarded)
	row("fast-path overhead", fmt.Sprintf("%.2fx", float64(guarded)/float64(base)))

	// (e) Merkle batch commits: drain throughput under the PR 3 denial
	// storm — identical denial events flooding the rings, the shape a
	// hostile application's refused checks produce — for a sweep of
	// merkle-batch sizes. Only the drain (Sync) is timed; emission is
	// the same on every path.
	storm := audit.Event{Cat: audit.CatDeny, Verb: "deny", User: "mallory", App: 3, Thread: 9,
		Detail: `file "/etc/shadow" "read" domain=file:/local/evil`}
	const stormN = 4096
	rounds := max(iters/64, 16)
	drainCost := func(cfg audit.Config) time.Duration {
		cfg.Store = audit.NewMemStore()
		cfg.Mask = audit.CatDeny
		cfg.Shards = 1
		cfg.ShardCap = stormN
		sl := audit.New(cfg)
		var total time.Duration
		for r := 0; r <= rounds; r++ { // round 0 is warm-up
			for i := 0; i < stormN; i++ {
				sl.Emit(storm)
			}
			t0 := time.Now()
			sl.Sync()
			if r > 0 {
				total += time.Since(t0)
			}
		}
		if st := sl.Stats(); st.Dropped != 0 || st.Records != uint64((rounds+1)*stormN) {
			panic(fmt.Sprintf("storm drain lost records: %+v", st))
		}
		return total / time.Duration(rounds*stormN)
	}
	for _, b := range []int{16, 64, 256} {
		row(fmt.Sprintf("drain per record, merkle batch %d", b), drainCost(audit.Config{MerkleBatch: b}))
	}

	// (f) Inclusion proofs over a 50k-record trail: Prove walks the
	// segment index and rebuilds one batch; VerifyProof re-hashes only
	// the leaf group, the interior path, and the chain link.
	const trailN = 50_000
	big := audit.New(audit.Config{Store: audit.NewMemStore(), Mask: audit.CatDeny,
		MerkleBatch: 256, Shards: 1, ShardCap: stormN, SegmentRecords: 8192})
	for i := 0; i < trailN; i++ {
		big.Emit(storm)
		if (i+1)%stormN == 0 {
			big.Sync()
		}
	}
	big.Sync()
	proveIters := min(iters, 512)
	var seq uint64
	prove := measure(proveIters, func() {
		seq = seq*2654435761%trailN + 1 // deterministic spread over the trail
		if _, err := big.Prove(seq); err != nil {
			panic(err)
		}
	})
	row("Prove (50k-record trail, batch 256)", prove)
	proof, err := big.Prove(trailN / 2)
	if err != nil {
		return err
	}
	verifyProof := measure(iters, func() {
		if err := audit.VerifyProof(proof); err != nil {
			panic(err)
		}
	})
	row("VerifyProof, standalone", verifyProof)
	row("inclusion proof hashes (batch 256)", fmt.Sprintf("%d (%d path levels)", proof.Hashes(), len(proof.Path)))

	// (g) Streaming re-verification of the same trail: full mode
	// rehashes all 50k leaves; by-root mode re-links 196 roots and
	// counts lines. Spot checks buy back leaf coverage à la carte.
	full := measure(3, func() {
		if res, err := big.Verify(); err != nil || !res.OK {
			panic(fmt.Sprintf("full verify: %+v %v", res, err))
		}
	})
	row("verify 50k records, full rehash", full)
	byRoot := measure(min(iters, 64), func() {
		if res, err := big.VerifyWith(audit.VerifyOptions{}); err != nil || !res.OK {
			panic(fmt.Sprintf("by-root verify: %+v %v", res, err))
		}
	})
	row("verify 50k records, by-root", byRoot)
	spot := measure(min(iters, 64), func() {
		if res, err := big.VerifyWith(audit.VerifyOptions{SpotCheck: 8}); err != nil || !res.OK {
			panic(fmt.Sprintf("spot verify: %+v %v", res, err))
		}
	})
	row("verify 50k records, by-root + 8 spot checks", spot)
	row("verify speedup, by-root vs full", fmt.Sprintf("%.1fx", float64(full)/float64(byRoot)))
	return nil
}

func e9(iters int) error {
	p, store, err := standard("e9")
	if err != nil {
		return err
	}
	defer p.Shutdown()
	p.Net().AddHost("applets.example.org")
	if err := store.Register(&applet.Definition{
		Name: "tiny", Host: "applets.example.org",
		Main: func(*applet.Context) int { return 0 },
	}); err != nil {
		return err
	}
	ready := make(chan *mpj.Context, 1)
	if err := p.RegisterProgram(mpj.Program{Name: "host", Main: func(ctx *mpj.Context, args []string) int {
		ready <- ctx
		<-ctx.Thread().StopChan()
		return 0
	}}); err != nil {
		return err
	}
	app, err := p.Exec(mpj.ExecSpec{Program: "host"})
	if err != nil {
		return err
	}
	ctx := <-ready
	viewer := applet.NewViewer(store)
	d := measure(iters, func() {
		if _, err := viewer.RunApplet(ctx, "tiny"); err != nil {
			panic(err)
		}
	})
	row("sandboxed applet lifecycle", d)
	app.RequestExit(0)
	app.WaitFor()
	return nil
}

// e10 uses its own iteration count: pipeline launches are orders of
// magnitude heavier than the micro-operations iters is sized for.
func e10(iters int) error {
	p, _, err := standard("e10")
	if err != nil {
		return err
	}
	defer p.Shutdown()
	alice, err := p.Users().Lookup("alice")
	if err != nil {
		return err
	}
	var sink streams.Buffer
	out := streams.NewWriteStream("out", streams.OwnerSystem, &sink)
	for _, stages := range []int{1, 2, 4, 8} {
		line := "echo data"
		for i := 1; i < stages; i++ {
			line += " | cat"
		}
		d := measure(200, func() {
			sink.Reset()
			app, err := p.Exec(mpj.ExecSpec{Program: "sh", Args: []string{"-c", line},
				User: alice, Stdout: out, Dir: "/tmp"})
			if err != nil {
				panic(err)
			}
			if code := app.WaitFor(); code != 0 {
				panic(fmt.Sprintf("pipeline exit %d", code))
			}
		})
		row(fmt.Sprintf("%d-stage pipeline", stages), d)
	}
	return nil
}

func e11(iters int) error {
	p, _, err := standard("e11")
	if err != nil {
		return err
	}
	defer p.Shutdown()
	d := measure(500, func() {
		app, err := p.Exec(mpj.ExecSpec{Program: "login", Args: []string{"alice", "wonderland"}})
		if err != nil {
			panic(err)
		}
		if code := app.WaitFor(); code != 0 {
			panic(fmt.Sprintf("login exit %d", code))
		}
	})
	row("full login cycle", d)
	return nil
}

// e12 measures the Section 8 shared-object IPC mechanism against byte
// pipes.
func e12(iters int) error {
	for _, size := range []int{4096, 1 << 20} {
		payload := make([]byte, size)

		box := objspace.NewMailbox(1)
		boxDone := make(chan struct{})
		go func() {
			defer close(boxDone)
			for {
				if _, err := box.Receive(); err != nil {
					return
				}
			}
		}()
		mbox := measure(iters, func() {
			if err := box.Send(payload); err != nil {
				panic(err)
			}
		})
		box.Close()
		<-boxDone

		r, w := streams.NewPipe(64 * 1024)
		pipeDone := make(chan struct{})
		go func() {
			defer close(pipeDone)
			buf := make([]byte, 64*1024)
			for {
				if _, err := r.Read(buf); err != nil {
					return
				}
			}
		}()
		pipe := measure(iters, func() {
			if _, err := w.Write(payload); err != nil {
				panic(err)
			}
		})
		_ = w.Close()
		<-pipeDone
		label := "4KiB"
		if size >= 1<<20 {
			label = "1MiB"
		}
		row(fmt.Sprintf("%s message: mailbox / pipe", label), fmt.Sprintf("%v / %v", mbox, pipe))
	}
	return nil
}

// e13 measures cross-VM exec against local exec.
func e13(iters int) error {
	net := netsim.New()
	net.AddHost("localhost")
	net.AddHost("vm2.local")
	mk := func(name string) (*mpj.Platform, error) {
		p, err := core.NewPlatform(core.Config{Name: name, Net: net})
		if err != nil {
			return nil, err
		}
		if err := mpj.InstallCoreutils(p); err != nil {
			return nil, err
		}
		if _, err := p.AddUser("alice", "wonderland"); err != nil {
			return nil, err
		}
		return p, nil
	}
	vm1, err := mk("vm1")
	if err != nil {
		return err
	}
	defer vm1.Shutdown()
	vm2, err := mk("vm2")
	if err != nil {
		return err
	}
	defer vm2.Shutdown()
	if err := remote.InstallRexec(vm1); err != nil {
		return err
	}
	vm1.Policy().AddGrant(&security.Grant{
		User:  "*",
		Perms: []security.Permission{security.NewSocketPermission("vm2.local:512", "connect")},
	})
	d, err := remote.StartDaemon(vm2, "vm2.local", remote.DefaultPort)
	if err != nil {
		return err
	}
	defer d.Close()

	alice, err := vm1.Users().Lookup("alice")
	if err != nil {
		return err
	}
	const rounds = 300
	local := measure(rounds, func() {
		app, err := vm1.Exec(mpj.ExecSpec{Program: "echo", Args: []string{"x"}, User: alice})
		if err != nil {
			panic(err)
		}
		app.WaitFor()
	})
	remoteD := measure(rounds, func() {
		app, err := vm1.Exec(mpj.ExecSpec{
			Program: "rexec",
			Args:    []string{"-p", "wonderland", "vm2.local:512", "echo", "x"},
			User:    alice,
		})
		if err != nil {
			panic(err)
		}
		if code := app.WaitFor(); code != 0 {
			panic(fmt.Sprintf("remote exit %d", code))
		}
	})
	row("local exec", local)
	row("cross-VM exec (dial+auth+bridge)", remoteD)
	row("cross-VM penalty", fmt.Sprintf("%.1fx", float64(remoteD)/float64(local)))
	return nil
}
