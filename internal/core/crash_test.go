package core

import (
	"strings"
	"testing"
	"time"

	"mpj/internal/events"
	"mpj/internal/streams"
	"mpj/internal/vm"
)

// TestCrashContainment: an application whose main panics is destroyed
// with CrashExitCode, reports to its own stderr, and neither the VM
// nor a co-resident application is affected — the central protection
// property of a multi-processing VM.
func TestCrashContainment(t *testing.T) {
	p := newTestPlatform(t)
	registerProgram(t, p, "crasher", func(ctx *Context, args []string) int {
		var m map[string]int
		m["boom"] = 1 // nil-map write: runtime panic
		return 0
	})
	release := make(chan struct{})
	registerProgram(t, p, "survivor", func(ctx *Context, args []string) int {
		<-release
		return 11
	})

	var crashErr streams.Buffer
	survivor, err := p.Exec(ExecSpec{Program: "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	crasher, err := p.Exec(ExecSpec{
		Program: "crasher",
		Stderr:  streams.NewWriteStream("crash-err", streams.OwnerSystem, &crashErr),
	})
	if err != nil {
		t.Fatal(err)
	}
	if code := crasher.WaitFor(); code != CrashExitCode {
		t.Fatalf("crash exit = %d, want %d", code, CrashExitCode)
	}
	text := crashErr.String()
	if !strings.Contains(text, "crashed") || !strings.Contains(text, "crasher") {
		t.Fatalf("crash report = %q", text)
	}
	if p.VM().Halted() {
		t.Fatal("VM halted by application crash")
	}
	// The co-resident application is untouched.
	select {
	case <-survivor.Done():
		t.Fatal("survivor destroyed by foreign crash")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if code := survivor.WaitFor(); code != 11 {
		t.Fatalf("survivor exit = %d", code)
	}
}

// TestCrashInSpawnedThread: a panic in a secondary application thread
// also crashes only that application.
func TestCrashInSpawnedThread(t *testing.T) {
	p := newTestPlatform(t)
	registerProgram(t, p, "bg-crasher", func(ctx *Context, args []string) int {
		_, err := ctx.SpawnThread("doomed", false, func(*Context) {
			panic("thread bug")
		})
		if err != nil {
			t.Error(err)
		}
		<-ctx.Thread().StopChan() // the crash destroys the app and stops us
		return 0
	})
	app, err := p.Exec(ExecSpec{Program: "bg-crasher"})
	if err != nil {
		t.Fatal(err)
	}
	if code := app.WaitFor(); code != CrashExitCode {
		t.Fatalf("exit = %d, want %d", code, CrashExitCode)
	}
	if p.VM().Halted() {
		t.Fatal("VM halted")
	}
}

// TestListenerPanicContained: a panicking event callback does not kill
// the dispatcher; later events still arrive.
func TestListenerPanicContained(t *testing.T) {
	p := newTestPlatform(t)
	display := p.EnableDisplay(events.PerAppDispatcher)

	delivered := make(chan int, 4)
	registerProgram(t, p, "fragile-gui", func(ctx *Context, args []string) int {
		w, err := ctx.OpenWindow("w")
		if err != nil {
			t.Error(err)
			return 1
		}
		_ = w.AddListener("b", func(_ *vm.Thread, e events.Event) {
			if e.X == 0 {
				panic("listener bug")
			}
			delivered <- e.X
		})
		for i := 0; i < 3; i++ {
			if err := ctx.Platform().Display().Post(events.Event{
				Window: w.ID(), Component: "b", Kind: events.KindAction, X: i,
			}); err != nil {
				t.Error(err)
			}
		}
		<-ctx.Thread().StopChan()
		return 0
	})
	alice := userByName(t, p, "alice")
	app, err := p.Exec(ExecSpec{Program: "fragile-gui", User: alice})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{1, 2} {
		select {
		case got := <-delivered:
			if got != want {
				t.Fatalf("delivered %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("dispatcher died after listener panic")
		}
	}
	if display.Stats().ListenerPanics != 1 {
		t.Fatalf("panics counted = %d", display.Stats().ListenerPanics)
	}
	app.RequestExit(0)
	app.WaitFor()
}

// TestShutdownWithLiveApps: platform shutdown destroys every live
// application and halts the VM cleanly.
func TestShutdownWithLiveApps(t *testing.T) {
	p, err := NewPlatform(Config{Name: "shutdown"})
	if err != nil {
		t.Fatal(err)
	}
	registerProgram(t, p, "forever", func(ctx *Context, args []string) int {
		<-ctx.Thread().StopChan()
		return 0
	})
	apps := make([]*Application, 0, 3)
	for i := 0; i < 3; i++ {
		app, err := p.Exec(ExecSpec{Program: "forever"})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	p.Shutdown()
	for _, app := range apps {
		if !app.Destroyed() {
			t.Errorf("app %d not destroyed at shutdown", app.ID())
		}
	}
	if !p.VM().Halted() {
		t.Fatal("VM not halted")
	}
	// Shutdown is idempotent.
	p.Shutdown()
}

// TestStubbornThreadIsAbandoned: a thread that ignores its stop signal
// delays destruction only by the bounded grace period; the application
// still completes destruction.
func TestStubbornThreadIsAbandoned(t *testing.T) {
	p := newTestPlatform(t)
	block := make(chan struct{})
	defer close(block)
	registerProgram(t, p, "stubborn", func(ctx *Context, args []string) int {
		_, err := ctx.SpawnThread("ignores-stop", false, func(*Context) {
			<-block // never observes StopChan
		})
		if err != nil {
			t.Error(err)
		}
		// Main waits to be stopped, so its return code cannot win the
		// race against the RequestExit code below.
		<-ctx.Thread().StopChan()
		return 0
	})
	app, err := p.Exec(ExecSpec{Program: "stubborn"})
	if err != nil {
		t.Fatal(err)
	}
	app.RequestExit(5)
	select {
	case <-app.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("destruction blocked forever by a stubborn thread")
	}
	if code := app.ExitCode(); code != 5 {
		t.Fatalf("exit = %d", code)
	}
}
