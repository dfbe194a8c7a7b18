// Package vm implements the virtual-machine kernel substrate for the
// multi-processing platform: green threads, hierarchical thread groups,
// daemon/non-daemon semantics, and the VM lifecycle of Figure 1 of the
// paper ("once all non-daemon threads of an application have finished,
// the JVM exits even though daemon threads may still be running").
//
// The package deliberately mirrors the thread model of the Java Virtual
// Machine: a VM boots with a system thread group containing daemon
// bookkeeping threads (garbage collector, finalizer, idle thread), user
// code runs on non-daemon threads, and the VM halts when the count of
// live non-daemon threads drops to zero.
package vm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/audit"
)

// Sentinel errors returned by VM and thread-group operations.
var (
	// ErrHalted is returned when an operation is attempted on a VM that
	// has already halted.
	ErrHalted = errors.New("vm: virtual machine has halted")

	// ErrGroupDestroyed is returned when a thread is spawned into a
	// destroyed thread group.
	ErrGroupDestroyed = errors.New("vm: thread group destroyed")

	// ErrThreadRunning is returned by Destroy on a group that still has
	// live threads.
	ErrThreadRunning = errors.New("vm: thread group has live threads")
)

// IdlePolicy selects what the VM does when its last non-daemon thread
// terminates.
type IdlePolicy int

const (
	// HaltOnIdle stops the VM when no non-daemon threads remain. This is
	// the classical single-application JVM behaviour of Figure 1.
	HaltOnIdle IdlePolicy = iota + 1

	// StayOnIdle keeps the VM alive with only daemon threads running.
	// The multi-processing platform uses an explicit Hold instead.
	StayOnIdle
)

// Config configures a new VM.
type Config struct {
	// Name identifies the VM in diagnostics. Defaults to "vm".
	Name string

	// IdlePolicy selects the behaviour when the last non-daemon thread
	// exits. Defaults to HaltOnIdle.
	IdlePolicy IdlePolicy

	// OnIdle, if non-nil, is invoked (once, on an internal goroutine)
	// when the last non-daemon thread exits, before the idle policy is
	// applied.
	OnIdle func()

	// DaemonShutdownGrace bounds how long Halt waits for daemon threads
	// to observe their stop signal. Defaults to 2 seconds.
	DaemonShutdownGrace time.Duration

	// NoBootThreads suppresses creation of the simulated gc / finalizer
	// / idle daemon threads. Used by micro-benchmarks that measure raw
	// thread accounting.
	NoBootThreads bool
}

// VM is a virtual machine instance: a process-like container of threads
// and thread groups with software-based protection. Multiple independent
// VMs may coexist in one address space (that is the "launch multiple
// JVMs" baseline of Section 2 of the paper).
type VM struct {
	name  string
	cfg   Config
	clock func() time.Time

	mu           sync.Mutex
	systemGroup  *ThreadGroup
	mainGroup    *ThreadGroup
	threads      map[ThreadID]*Thread
	nextThreadID ThreadID
	nextGroupID  int64

	nonDaemon int // live non-daemon threads plus outstanding holds
	halted    bool
	exitCode  int
	idleFired bool

	stopAll chan struct{} // closed on halt; daemon threads and parked carriers watch this
	exited  chan struct{} // closed once the VM has fully halted

	startTime time.Time
	stats     Stats

	// auditLog is the VM-wide audit log, installed by the platform after
	// boot. It is read on hot paths (every permission check consults it
	// through Thread.VM), hence the lock-free slot; nil means no audit.
	auditLog atomic.Pointer[audit.Log]

	// admission is the optional thread-admission hook (see
	// SetThreadAdmission); a lock-free slot read on every spawn.
	admission atomic.Pointer[ThreadAdmission]

	// carriers hands a spawned thread to a parked carrier goroutine
	// (see carry). Unbuffered: a send succeeds only if one is waiting.
	carriers     chan *Thread
	idleCarriers atomic.Int32
}

// ThreadAdmission is consulted before every thread spawn. It may veto
// the spawn by returning an error (the error is returned verbatim from
// SpawnThread); on success the returned release function — if non-nil —
// is invoked exactly once when the thread terminates (or when a later
// step of the spawn itself fails). The platform layer uses this to
// enforce per-user thread quotas without the kernel knowing about
// users.
type ThreadAdmission func(spec *ThreadSpec) (release func(), err error)

// Stats reports cumulative counters for a VM.
type Stats struct {
	ThreadsSpawned    int64
	ThreadsTerminated int64
	GroupsCreated     int64
}

// New boots a virtual machine. Boot creates the system thread group
// (holding the simulated garbage collector, finalizer and idle daemon
// threads) and the main thread group beneath it, mirroring JVM startup
// as described in Section 3.1 of the paper.
func New(cfg Config) *VM {
	if cfg.Name == "" {
		cfg.Name = "vm"
	}
	if cfg.IdlePolicy == 0 {
		cfg.IdlePolicy = HaltOnIdle
	}
	if cfg.DaemonShutdownGrace == 0 {
		cfg.DaemonShutdownGrace = 2 * time.Second
	}
	v := &VM{
		name:      cfg.Name,
		cfg:       cfg,
		clock:     time.Now,
		threads:   make(map[ThreadID]*Thread),
		stopAll:   make(chan struct{}),
		exited:    make(chan struct{}),
		carriers:  make(chan *Thread),
		startTime: time.Now(),
	}
	v.systemGroup = v.newGroupLocked(nil, "system")
	v.mainGroup = v.newGroupLocked(v.systemGroup, "main")
	if !cfg.NoBootThreads {
		v.spawnBootThreads()
	}
	return v
}

// spawnBootThreads starts the simulated VM-internal daemon threads that
// a JVM creates immediately after gaining control from the OS: a
// garbage collector, a finalizer thread, and an idle thread.
func (v *VM) spawnBootThreads() {
	for _, name := range []string{"gc", "finalizer", "idle"} {
		// Each boot thread parks until the VM halts; they exist so that
		// daemon-thread accounting behaves as in a real JVM.
		_, err := v.SpawnThread(ThreadSpec{
			Group:  v.systemGroup,
			Name:   name,
			Daemon: true,
			Run: func(t *Thread) {
				<-t.StopChan()
			},
		})
		if err != nil {
			// Spawning into a freshly booted VM cannot fail; a failure
			// here indicates internal corruption during initialization.
			panic(fmt.Sprintf("vm: boot thread %s: %v", name, err))
		}
	}
}

// Name returns the VM's diagnostic name.
func (v *VM) Name() string { return v.name }

// SetAuditLog installs the VM-wide audit log. Call once, at platform
// boot, before application code runs.
func (v *VM) SetAuditLog(l *audit.Log) { v.auditLog.Store(l) }

// SetThreadAdmission installs the thread-admission hook. Call at boot,
// before application threads spawn; nil removes the hook.
func (v *VM) SetThreadAdmission(fn ThreadAdmission) {
	if fn == nil {
		v.admission.Store(nil)
		return
	}
	v.admission.Store(&fn)
}

// AuditLog returns the VM-wide audit log, or nil. The accessor is a
// single atomic load, cheap enough for the access-control fast path.
func (v *VM) AuditLog() *audit.Log { return v.auditLog.Load() }

// SystemGroup returns the root thread group that holds VM-internal
// threads (gc, finalizer, idle, and — in the multi-processing platform —
// the display-server helper threads that must not belong to any
// application; see Section 5.4).
func (v *VM) SystemGroup() *ThreadGroup { return v.systemGroup }

// MainGroup returns the group beneath which application thread groups
// are created.
func (v *VM) MainGroup() *ThreadGroup { return v.mainGroup }

// Uptime reports how long the VM has been running.
func (v *VM) Uptime() time.Duration { return v.clock().Sub(v.startTime) }

// Stats returns a snapshot of cumulative counters.
func (v *VM) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// Hold registers an artificial non-daemon reference that keeps the VM
// alive, and returns a release function. The platform layer holds the VM
// during bootstrap, before the first application's main thread exists —
// exactly the window in which a freshly exec'ed JVM has not yet started
// its main thread. Release is idempotent.
func (v *VM) Hold() (release func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.halted {
		return func() {}
	}
	v.nonDaemon++
	var once sync.Once
	return func() {
		once.Do(func() {
			v.mu.Lock()
			v.nonDaemon--
			idle := v.nonDaemon == 0 && !v.halted
			v.mu.Unlock()
			if idle {
				v.onIdle()
			}
		})
	}
}

// onIdle runs when the last non-daemon thread (or hold) goes away.
func (v *VM) onIdle() {
	v.mu.Lock()
	if v.idleFired || v.halted {
		v.mu.Unlock()
		return
	}
	if v.nonDaemon > 0 {
		// A new non-daemon thread raced in; the VM is no longer idle.
		v.mu.Unlock()
		return
	}
	v.idleFired = true
	hook := v.cfg.OnIdle
	policy := v.cfg.IdlePolicy
	v.mu.Unlock()

	if hook != nil {
		hook()
	}
	if policy == HaltOnIdle {
		v.Exit(0)
	} else {
		// The VM stays up; allow a later idle transition to fire again.
		v.mu.Lock()
		v.idleFired = false
		v.mu.Unlock()
	}
}

// Exit halts the VM with the given exit code, stopping all threads —
// the System.exit() analogue. It is safe to call multiple times; only
// the first call's code is recorded.
func (v *VM) Exit(code int) {
	v.mu.Lock()
	if v.halted {
		v.mu.Unlock()
		return
	}
	v.halted = true
	v.exitCode = code
	threads := make([]*Thread, 0, len(v.threads))
	for _, t := range v.threads {
		threads = append(threads, t)
	}
	v.mu.Unlock()

	if l := v.AuditLog(); l.Enabled(audit.CatThread) {
		l.Emit(audit.Event{Cat: audit.CatThread, Verb: "vm-exit",
			Detail: fmt.Sprintf("vm %q exit code %d", v.name, code)})
	}

	// Signal every live thread, then the global stop channel.
	for _, t := range threads {
		t.signalStop()
	}
	close(v.stopAll)

	// Give threads a bounded grace period to observe the signal and
	// unwind. Threads that ignore the cooperative stop are abandoned
	// (Go cannot forcibly kill a goroutine).
	deadline := time.After(v.cfg.DaemonShutdownGrace)
wait:
	for _, t := range threads {
		select {
		case <-t.Done():
		case <-deadline:
			break wait
		}
	}
	close(v.exited)
}

// Halted reports whether the VM has halted.
func (v *VM) Halted() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.halted
}

// ExitCode returns the recorded exit code. Valid after the VM halts.
func (v *VM) ExitCode() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.exitCode
}

// Done returns a channel closed when the VM has halted.
func (v *VM) Done() <-chan struct{} { return v.exited }

// AwaitExit blocks until the VM halts and returns its exit code.
func (v *VM) AwaitExit() int {
	<-v.exited
	return v.ExitCode()
}

// StopChan returns the VM-wide stop channel, closed at halt. Daemon
// service threads select on this.
func (v *VM) StopChan() <-chan struct{} { return v.stopAll }

// LiveThreads returns a snapshot of all live threads.
func (v *VM) LiveThreads() []*Thread {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*Thread, 0, len(v.threads))
	for _, t := range v.threads {
		out = append(out, t)
	}
	return out
}

// ThreadCount returns the number of live threads — a cheap leak probe
// for harnesses that must assert a VM returned to its baseline after
// a load run.
func (v *VM) ThreadCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.threads)
}

// NonDaemonCount returns the number of live non-daemon threads plus
// outstanding holds.
func (v *VM) NonDaemonCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.nonDaemon
}

// FindThread returns the live thread with the given id, or nil.
func (v *VM) FindThread(id ThreadID) *Thread {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.threads[id]
}
