package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mpj/internal/streams"
)

// bufStream wraps a bytes.Buffer in a write stream for capturing an
// application's stdout.
func bufStream(name string) (*streams.Stream, *bytes.Buffer) {
	var b bytes.Buffer
	return streams.NewWriteStream(name, streams.OwnerSystem, &b), &b
}

// TestTemplatedExecMatchesColdPathSemantics runs the same two-app
// scenario once through the sealed-template fast path and once through
// the cold child-loader path and asserts the observable semantics are
// identical: each application gets its own System incarnation whose
// statics hold its own streams, outputs never cross, and the main
// class file is shared while the defined classes are distinct.
func TestTemplatedExecMatchesColdPathSemantics(t *testing.T) {
	for _, tc := range []struct {
		name string
		cold bool
	}{
		{"templated", false},
		{"cold", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPlatform(Config{Name: "sem", NoLaunchTemplates: tc.cold})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(p.Shutdown)

			started := make(chan struct{}, 2)
			gate := make(chan struct{})
			registerProgram(t, p, "pair", func(ctx *Context, args []string) int {
				// Write through the System static, not the Context
				// accessor, so aliased statics would be caught directly.
				v, ok := ctx.app.system.Static("out")
				if !ok {
					t.Error("System.out static not seeded")
					return 1
				}
				fmt.Fprintf(v.(*streams.Stream), "hello from %s", args[0])
				started <- struct{}{}
				<-gate
				return 3
			})

			outA, bufA := bufStream("a")
			outB, bufB := bufStream("b")
			appA, err := p.Exec(ExecSpec{Program: "pair", Args: []string{"A"}, Stdout: outA})
			if err != nil {
				t.Fatal(err)
			}
			appB, err := p.Exec(ExecSpec{Program: "pair", Args: []string{"B"}, Stdout: outB})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				select {
				case <-started:
				case <-time.After(5 * time.Second):
					t.Fatal("applications did not start")
				}
			}
			close(gate)
			if code := appA.WaitFor(); code != 3 {
				t.Fatalf("appA exit = %d, want 3", code)
			}
			if code := appB.WaitFor(); code != 3 {
				t.Fatalf("appB exit = %d, want 3", code)
			}

			if got := bufA.String(); got != "hello from A" {
				t.Fatalf("appA stdout = %q", got)
			}
			if got := bufB.String(); got != "hello from B" {
				t.Fatalf("appB stdout = %q", got)
			}

			// Namespace separation (Section 5.5): distinct System
			// incarnations with independent statics.
			if appA.SystemClass() == appB.SystemClass() {
				t.Fatal("applications share a System incarnation")
			}
			if va, _ := appA.SystemClass().Static("out"); va != outA {
				t.Fatalf("appA System.out = %v, want its own stdout", va)
			}
			if vb, _ := appB.SystemClass().Static("out"); vb != outB {
				t.Fatalf("appB System.out = %v, want its own stdout", vb)
			}
			// The main class is NOT in the reload set: both loaders must
			// delegate to the one bootstrap definition (class sharing is
			// what makes multi-processing cheaper than multiple VMs).
			if appA.mainClass != appB.mainClass {
				t.Fatal("applications do not share the bootstrap main class definition")
			}
			if appA.Loader() == appB.Loader() {
				t.Fatal("applications share a loader")
			}

			wantBuilds := int64(1)
			if tc.cold {
				wantBuilds = 0
			}
			if got := p.TemplateBuilds(); got != wantBuilds {
				t.Fatalf("template builds = %d, want %d", got, wantBuilds)
			}
		})
	}
}

// TestTemplateCacheReuseAndInvalidation asserts one derivation serves
// many launches and that a class-path change (re-registering the
// program) invalidates the cached template.
func TestTemplateCacheReuseAndInvalidation(t *testing.T) {
	p := newTestPlatform(t)
	registerProgram(t, p, "noop", func(ctx *Context, args []string) int { return 0 })

	for i := 0; i < 10; i++ {
		if code, err := p.ExecWait(ExecSpec{Program: "noop"}); err != nil || code != 0 {
			t.Fatalf("launch %d: code=%d err=%v", i, code, err)
		}
	}
	if got := p.TemplateBuilds(); got != 1 {
		t.Fatalf("template builds after 10 launches = %d, want 1", got)
	}

	// Re-installing the program bumps the registry generation; the next
	// launch must rebuild, and the rebuilt template serves again.
	registerProgram(t, p, "noop", func(ctx *Context, args []string) int { return 0 })
	for i := 0; i < 5; i++ {
		if code, err := p.ExecWait(ExecSpec{Program: "noop"}); err != nil || code != 0 {
			t.Fatalf("relaunch %d: code=%d err=%v", i, code, err)
		}
	}
	if got := p.TemplateBuilds(); got != 2 {
		t.Fatalf("template builds after re-install = %d, want 2", got)
	}
}

// TestWarmTemplateForDoesNotAllocate pins the launch fast path's
// template lookup: once a program's slot holds a valid template,
// templateFor must neither allocate a candidate slot nor box the name.
func TestWarmTemplateForDoesNotAllocate(t *testing.T) {
	p := newTestPlatform(t)
	registerProgram(t, p, "noop", func(ctx *Context, args []string) int { return 0 })
	prog, ok := p.Programs().Lookup("noop")
	if !ok {
		t.Fatal("noop not registered")
	}
	warm, err := p.templateFor(prog)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if tpl, err := p.templateFor(prog); err != nil || tpl != warm {
			t.Fatalf("warm templateFor = %p, %v; want %p", tpl, err, warm)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm templateFor allocates %.1f times per call, want 0", allocs)
	}
}

// TestExecRollbackLeavesNoThreadGroup is the regression test for the
// launch-failure leak: a launch whose main thread is rejected (here by
// the per-user thread quota) must tear its already-created thread
// group back down and unregister the application completely.
func TestExecRollbackLeavesNoThreadGroup(t *testing.T) {
	p, err := NewPlatform(Config{
		Name:   "leak",
		Quotas: QuotaConfig{MaxThreadsPerUser: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)

	registerProgram(t, p, "holder", func(ctx *Context, args []string) int {
		<-ctx.Thread().StopChan()
		return 0
	})
	registerProgram(t, p, "second", func(ctx *Context, args []string) int { return 0 })

	holder, err := p.Exec(ExecSpec{Program: "holder"})
	if err != nil {
		t.Fatal(err)
	}
	groups := len(p.VM().MainGroup().Children())

	// The holder's main thread occupies the user's only thread slot, so
	// this launch fails at SpawnThread — after the group exists.
	_, err = p.Exec(ExecSpec{Program: "second"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if !strings.Contains(err.Error(), "threads") {
		t.Fatalf("rejection %q does not name the exhausted dimension", err)
	}
	if _, err := p.Exec(ExecSpec{Program: "second"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second rejection err = %v, want ErrQuotaExceeded", err)
	}

	if got := len(p.VM().MainGroup().Children()); got != groups {
		t.Fatalf("thread groups under main = %d, want %d (failed launch leaked its group)", got, groups)
	}
	if got := len(p.Applications()); got != 1 {
		t.Fatalf("live applications = %d, want 1", got)
	}

	// Once the holder exits its thread charge is refunded and the same
	// launch succeeds — proving the failed attempts left no residue.
	holder.RequestExit(0)
	holder.WaitFor()
	if code, err := p.ExecWait(ExecSpec{Program: "second"}); err != nil || code != 0 {
		t.Fatalf("relaunch after holder exit: code=%d err=%v", code, err)
	}

	st := p.QuotaStats()
	if st.ThreadsAttempted != st.ThreadsAdmitted+st.ThreadsRejected {
		t.Fatalf("thread conservation violated: %+v", st)
	}
	if st.ThreadsRejected != 2 {
		t.Fatalf("threads rejected = %d, want 2", st.ThreadsRejected)
	}
}

// TestLaunchStormUnderReinstall drives many concurrent launches through
// one program while the program is concurrently re-installed (bumping
// the registry generation and invalidating the template mid-storm).
// Every launch must exit cleanly with its own System statics, the
// invalidation must be observed, and the quota ledger must conserve
// (admitted + rejected == attempted) and drain back to zero. Run under
// -race this is the template path's main concurrency test.
func TestLaunchStormUnderReinstall(t *testing.T) {
	p, err := NewPlatform(Config{
		Name: "storm",
		Quotas: QuotaConfig{
			MaxAppsPerUser:    1000,
			MaxThreadsPerUser: 1000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)

	stormMain := func(ctx *Context, args []string) int {
		v, ok := ctx.app.system.Static("out")
		if !ok {
			return 1
		}
		fmt.Fprint(v.(*streams.Stream), args[0])
		return 0
	}
	registerProgram(t, p, "storm", stormMain)

	const (
		workers           = 8
		launchesPerWorker = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*launchesPerWorker)

	// Concurrent re-installer: invalidates the template mid-storm.
	stopReinstall := make(chan struct{})
	var reinstall sync.WaitGroup
	reinstall.Add(1)
	go func() {
		defer reinstall.Done()
		for i := 0; i < 10; i++ {
			select {
			case <-stopReinstall:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := p.RegisterProgram(Program{Name: "storm", Main: stormMain}); err != nil {
				errs <- fmt.Errorf("reinstall: %w", err)
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < launchesPerWorker; i++ {
				marker := fmt.Sprintf("w%d-%d", w, i)
				out, buf := bufStream(marker)
				code, err := p.ExecWait(ExecSpec{Program: "storm", Args: []string{marker}, Stdout: out})
				if err != nil {
					errs <- fmt.Errorf("launch %s: %w", marker, err)
					continue
				}
				if code != 0 {
					errs <- fmt.Errorf("launch %s: exit %d", marker, code)
					continue
				}
				if got := buf.String(); got != marker {
					errs <- fmt.Errorf("launch %s: stdout %q (System statics aliased?)", marker, got)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopReinstall)
	reinstall.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Force one more invalidation so at least two builds are guaranteed
	// even if the storm outran every mid-flight re-install.
	registerProgram(t, p, "storm", stormMain)
	out, _ := bufStream("final")
	if code, err := p.ExecWait(ExecSpec{Program: "storm", Args: []string{"final"}, Stdout: out}); err != nil || code != 0 {
		t.Fatalf("final launch: code=%d err=%v", code, err)
	}
	if got := p.TemplateBuilds(); got < 2 {
		t.Fatalf("template builds = %d, want >= 2 (invalidation never observed)", got)
	}
	total := int64(workers*launchesPerWorker + 1)
	if got := p.TemplateBuilds(); got >= total {
		t.Fatalf("template builds = %d of %d launches: template cache never hit", got, total)
	}

	st := p.QuotaStats()
	if st.AppsAttempted != st.AppsAdmitted+st.AppsRejected {
		t.Fatalf("app conservation violated: %+v", st)
	}
	if st.ThreadsAttempted != st.ThreadsAdmitted+st.ThreadsRejected {
		t.Fatalf("thread conservation violated: %+v", st)
	}
	if st.AppsAttempted != total || st.AppsRejected != 0 {
		t.Fatalf("app stats = %+v, want %d attempted, 0 rejected", st, total)
	}
	if apps, threads, evs := p.quotas.liveFor("nobody"); apps != 0 || threads != 0 || evs != 0 {
		t.Fatalf("live charges after storm = (%d,%d,%d), want all zero", apps, threads, evs)
	}
}
