package vm

import (
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settle spins (yielding, never sleeping) until cond holds, and fails
// the test if it does not hold within a generous deadline. Carriers
// park or exit asynchronously after the thread they ran is joined, so
// goroutine counts are only meaningful once they settle.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s did not settle (goroutines: %d)", what, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// goroutineID parses the running goroutine's ID from its stack header
// ("goroutine 123 [running]:").
func goroutineID() int64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseInt(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// deepStack recurses through frames of about 1 KiB each, so a body
// calling deepStack(8) needs roughly 8 KiB of goroutine stack.
//
//go:noinline
func deepStack(depth int) byte {
	var pad [1024]byte
	pad[depth%len(pad)] = byte(depth)
	if depth == 0 {
		return pad[0]
	}
	return deepStack(depth-1) + pad[depth%len(pad)]
}

// TestCarrierReuse runs 1000 deep-stack threads one after another: they
// share a handful of carriers, and the goroutine count never strays
// more than the idle bound from where it started.
func TestCarrierReuse(t *testing.T) {
	v := idleVM(t)
	base := runtime.NumGoroutine()
	carriers := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		var id int64
		spawn(t, v, ThreadSpec{Group: v.MainGroup(), Name: "deep", Run: func(*Thread) {
			deepStack(16)
			id = goroutineID()
		}}).Join()
		carriers[id] = true
		settle(t, "carriers after join", func() bool {
			return runtime.NumGoroutine() <= base+maxIdleCarriers
		})
	}
	if len(carriers) > maxIdleCarriers {
		t.Fatalf("1000 sequential threads ran on %d goroutines, want at most %d", len(carriers), maxIdleCarriers)
	}
}

// TestCarrierBurst blocks 500 threads at once, so 500 carriers exist;
// once the threads are released and joined, all but the idle bound
// exit.
func TestCarrierBurst(t *testing.T) {
	v := idleVM(t)
	base := runtime.NumGoroutine()
	const n = 500
	var (
		started  sync.WaitGroup
		mu       sync.Mutex
		carriers = map[int64]bool{}
	)
	started.Add(n)
	release := make(chan struct{})
	threads := make([]*Thread, 0, n)
	for i := 0; i < n; i++ {
		threads = append(threads, spawn(t, v, ThreadSpec{Group: v.MainGroup(), Name: "burst", Run: func(*Thread) {
			mu.Lock()
			carriers[goroutineID()] = true
			mu.Unlock()
			started.Done()
			<-release
		}}))
	}
	started.Wait()
	if len(carriers) != n {
		t.Fatalf("%d blocked threads on %d carriers", n, len(carriers))
	}
	close(release)
	for _, th := range threads {
		th.Join()
	}
	settle(t, "carriers after burst", func() bool {
		return runtime.NumGoroutine() <= base+maxIdleCarriers
	})
	if idle := v.idleCarriers.Load(); idle < 0 || idle > maxIdleCarriers {
		t.Fatalf("idle carriers = %d, want 0..%d", idle, maxIdleCarriers)
	}
}

// TestCarrierHaltReturnsGoroutines: a halted VM leaves no carrier
// behind, parked or running — including those of the boot threads.
func TestCarrierHaltReturnsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	v := New(Config{Name: "halt", IdlePolicy: StayOnIdle, DaemonShutdownGrace: time.Second})
	t.Cleanup(func() { v.Exit(0) })
	release := make(chan struct{})
	var threads []*Thread
	for i := 0; i < 40; i++ {
		threads = append(threads, spawn(t, v, ThreadSpec{Group: v.MainGroup(), Name: "w", Run: func(*Thread) {
			<-release
		}}))
	}
	close(release)
	for _, th := range threads {
		th.Join()
	}
	blocked := spawn(t, v, ThreadSpec{Group: v.MainGroup(), Name: "until-halt", Run: func(th *Thread) {
		<-th.StopChan()
	}})
	v.Exit(0)
	blocked.Join()
	settle(t, "goroutines after Exit", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// TestCarrierGoexit: a body that calls runtime.Goexit ends its carrier,
// but its thread still finishes exactly as a returning one does, and
// the idle count stays true: had each dead carrier been counted idle,
// the count would sit past the bound and no carrier would park again.
func TestCarrierGoexit(t *testing.T) {
	v := idleVM(t)
	var charged, released atomic.Int64
	v.SetThreadAdmission(func(*ThreadSpec) (func(), error) {
		charged.Add(1)
		return func() { released.Add(1) }, nil
	})
	before := v.Stats()
	const n = 2 * maxIdleCarriers
	for i := 0; i < n; i++ {
		deferred := false
		th := spawn(t, v, ThreadSpec{Group: v.MainGroup(), Name: "goexit", Run: func(*Thread) {
			defer func() { deferred = true }()
			runtime.Goexit()
		}})
		th.Join()
		if !deferred || th.State() != StateTerminated {
			t.Fatalf("goexit thread %d: deferred %v, state %v", i, deferred, th.State())
		}
	}
	if got := v.Stats().ThreadsTerminated - before.ThreadsTerminated; got != n {
		t.Fatalf("terminated %d goexit threads, want %d", got, n)
	}
	if charged.Load() != n || released.Load() != n {
		t.Fatalf("admission charged %d released %d, want %d each", charged.Load(), released.Load(), n)
	}
	// Later spawns still run, and still share parked carriers.
	carriers := map[int64]bool{}
	for i := 0; i < n; i++ {
		ran := false
		spawn(t, v, ThreadSpec{Group: v.MainGroup(), Name: "after", Run: func(*Thread) {
			ran = true
			carriers[goroutineID()] = true
		}}).Join()
		if !ran {
			t.Fatalf("spawn %d after goexit did not run", i)
		}
	}
	if len(carriers) > maxIdleCarriers {
		t.Fatalf("%d sequential threads after goexit ran on %d goroutines: carriers no longer park", n, len(carriers))
	}
	if idle := v.idleCarriers.Load(); idle < 0 || idle > maxIdleCarriers {
		t.Fatalf("idle carriers = %d, want 0..%d", idle, maxIdleCarriers)
	}
	if released.Load() != 2*n {
		t.Fatalf("admission released %d, want %d", released.Load(), 2*n)
	}
}

// TestCarrierDropsFinishedThread: an idle carrier must not keep the
// thread it last ran alive, and a finished thread that is still held
// must not keep its body's captures alive.
func TestCarrierDropsFinishedThread(t *testing.T) {
	v := idleVM(t)
	capturedGone := make(chan struct{})
	th := spawn(t, v, ThreadSpec{Group: v.MainGroup(), Name: "short", Run: bodyCapturing(capturedGone)})
	threadGone := make(chan struct{})
	runtime.SetFinalizer(th, func(*Thread) { close(threadGone) })
	th.Join()
	awaitCollected(t, capturedGone, "the body's captures, while the finished thread is held")
	runtime.KeepAlive(th)
	th = nil
	awaitCollected(t, threadGone, "the finished thread, while its carrier is idle")
}

// bodyCapturing returns a thread body that captures a fresh object
// whose finalizer closes gone.
func bodyCapturing(gone chan struct{}) func(*Thread) {
	captured := new([64]byte)
	runtime.SetFinalizer(captured, func(*[64]byte) { close(gone) })
	return func(*Thread) { captured[0]++ }
}

// awaitCollected runs the collector until gone closes (a finalizer
// closes it), and fails the test if that does not happen in time.
func awaitCollected(t *testing.T, gone <-chan struct{}, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-gone:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s was never collected", what)
		}
		runtime.Gosched()
	}
}

// TestCarrierUncontainedPanicCrashes: a panic that escapes a thread
// body still kills the process, as it did from a dedicated goroutine.
// The test re-runs itself as a child process that panics on a thread.
func TestCarrierUncontainedPanicCrashes(t *testing.T) {
	if os.Getenv("MPJ_VM_PANIC_CHILD") == "1" {
		v := New(Config{Name: "panic", NoBootThreads: true, IdlePolicy: StayOnIdle})
		// Warm a carrier first, so the panic unwinds a reused one.
		spawn(t, v, ThreadSpec{Group: v.MainGroup(), Name: "warm", Run: func(*Thread) {}}).Join()
		settle(t, "parked carrier", func() bool { return v.idleCarriers.Load() == 1 })
		spawn(t, v, ThreadSpec{Group: v.MainGroup(), Name: "boom", Run: func(*Thread) {
			panic("carrier-test-boom")
		}})
		// Join would return as soon as the deferred finish ran, before
		// the panic reaches the runtime; wait for the crash instead.
		select {}
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestCarrierUncontainedPanicCrashes$")
	cmd.Env = append(os.Environ(), "MPJ_VM_PANIC_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly:\n%s", out)
	}
	if !bytes.Contains(out, []byte("panic: carrier-test-boom")) {
		t.Fatalf("child did not die of the thread panic:\n%s", out)
	}
}

// BenchmarkSpawnJoin is one thread spawn plus Join: the kernel share of
// an application launch. The stack8k variant's body needs ~8 KiB of
// stack, which a fresh goroutine would grow from 2 KiB on every spawn.
func BenchmarkSpawnJoin(b *testing.B) {
	for _, bc := range []struct {
		name string
		run  func(*Thread)
	}{
		{"shallow", func(*Thread) {}},
		{"stack8k", func(*Thread) { deepStack(8) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			v := New(Config{Name: "bench", NoBootThreads: true, IdlePolicy: StayOnIdle})
			defer v.Exit(0)
			spec := ThreadSpec{Group: v.MainGroup(), Name: "b", Run: bc.run}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th, err := v.SpawnThread(spec)
				if err != nil {
					b.Fatal(err)
				}
				th.Join()
			}
		})
	}
}
