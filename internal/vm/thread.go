package vm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mpj/internal/audit"
)

// ThreadID uniquely identifies a thread within a VM.
type ThreadID int64

// ThreadState describes a thread's lifecycle state.
type ThreadState int32

const (
	// StateNew means the thread object exists but its body has not begun.
	StateNew ThreadState = iota + 1
	// StateRunnable means the thread body is executing (or blocked in it).
	StateRunnable
	// StateTerminated means the thread body has returned.
	StateTerminated
)

// String returns a human-readable state name.
func (s ThreadState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateTerminated:
		return "terminated"
	default:
		return "unknown"
	}
}

// Domain is the minimal view of a protection domain that the VM kernel
// needs in order to carry security frames on threads. The security
// package supplies the concrete implementation; keeping only an
// interface here preserves the layering (vm does not import security).
type Domain interface {
	// DomainName identifies the domain for diagnostics.
	DomainName() string
}

// Frame is one entry of a thread's security call stack. Because Go
// offers no caller-identity introspection, code that crosses a class
// boundary pushes a frame explicitly (the classes package does this in
// its Invoke helper). The AccessController walks these frames exactly
// like the JDK 1.2 stack inspection the paper builds on.
type Frame struct {
	// Class is the fully qualified name of the class whose code is
	// executing in this frame.
	Class string
	// Domain is the protection domain of that class.
	Domain Domain
	// Privileged marks a doPrivileged boundary: a permission-check walk
	// stops after consulting this frame.
	Privileged bool
}

// ThreadSpec describes a thread to spawn.
type ThreadSpec struct {
	// Group is the thread group the new thread joins. Required.
	Group *ThreadGroup
	// Name is the thread's diagnostic name.
	Name string
	// Daemon marks the thread as a daemon: it does not keep the VM (or
	// its application) alive.
	Daemon bool
	// Run is the thread body. Required.
	Run func(t *Thread)
	// InheritFrames, if non-nil, seeds the new thread's security frame
	// stack (a copy is taken). A spawned thread inherits the security
	// context of its creator, as in Java.
	InheritFrames []Frame
	// OnExit, if non-nil, runs after the body returns and the thread has
	// been unregistered.
	OnExit func(t *Thread)
}

// Thread is a VM green thread: a body registered with the kernel and
// run on a carrier goroutine (see carry), carrying identity (group
// membership, daemon flag), a cooperative stop signal, an interrupt
// flag, a security frame stack, and thread-local storage.
type Thread struct {
	id     ThreadID
	name   string
	daemon bool
	group  *ThreadGroup
	vm     *VM

	state atomic.Int32

	stopOnce    sync.Once
	stop        chan struct{}
	done        chan struct{}
	interrupted atomic.Bool

	// frames is the security call stack. It is owned by the thread
	// itself: only code running on the thread may push/pop or read it.
	frames []Frame

	// secCtx is a dedicated lock-free slot for the security package's
	// per-thread context (user identity and permissions). It is read on
	// every permission check, so it bypasses the mutex-guarded locals
	// map.
	secCtx atomic.Pointer[any]

	// appTag is the ID of the application this thread belongs to (0 for
	// system threads). A lock-free slot, like secCtx, because audit
	// emission sites in layers below core read it to attribute events.
	appTag atomic.Int64

	// appRef is a dedicated lock-free slot for the owning application
	// object (held as an opaque any to keep the layering acyclic). The
	// core layer binds it on every application thread; reading it here
	// beats the mutex-guarded locals map on the launch fast path.
	appRef atomic.Pointer[any]

	localsMu sync.Mutex
	locals   map[string]any

	run    func(t *Thread)
	onExit func(t *Thread)

	// admitRelease returns the thread's admission-quota charge; set by
	// SpawnThread before the body starts, consumed once by finish.
	admitRelease func()
}

// SpawnThread creates and starts a thread. The thread is registered
// (and counted against daemon/non-daemon accounting) before its body
// runs, so there is no window in which a freshly spawned non-daemon
// thread could be missed by the idle detector.
func (v *VM) SpawnThread(spec ThreadSpec) (*Thread, error) {
	if spec.Group == nil {
		return nil, fmt.Errorf("vm: spawn %q: nil thread group", spec.Name)
	}
	if spec.Run == nil {
		return nil, fmt.Errorf("vm: spawn %q: nil body", spec.Name)
	}
	if spec.Group.vm != v {
		return nil, fmt.Errorf("vm: spawn %q: group %q belongs to a different VM", spec.Name, spec.Group.Name())
	}

	// Admission control: the platform layer may veto the spawn (per-user
	// thread quotas). The returned release is owed as soon as admission
	// succeeds — on any later spawn failure it is returned immediately,
	// otherwise it travels with the thread and is paid back by finish.
	var admitRelease func()
	if adm := v.admission.Load(); adm != nil {
		release, err := (*adm)(&spec)
		if err != nil {
			return nil, err
		}
		admitRelease = release
	}
	fail := func(err error) (*Thread, error) {
		if admitRelease != nil {
			admitRelease()
		}
		return nil, err
	}

	v.mu.Lock()
	if v.halted {
		v.mu.Unlock()
		return fail(ErrHalted)
	}
	v.nextThreadID++
	t := &Thread{
		id:     v.nextThreadID,
		name:   spec.Name,
		daemon: spec.Daemon,
		group:  spec.Group,
		vm:     v,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		run:    spec.Run,
		onExit: spec.OnExit,
	}
	t.state.Store(int32(StateNew))
	if len(spec.InheritFrames) > 0 {
		t.frames = make([]Frame, len(spec.InheritFrames))
		copy(t.frames, spec.InheritFrames)
	}
	t.admitRelease = admitRelease
	if err := spec.Group.add(t); err != nil {
		v.mu.Unlock()
		return fail(err)
	}
	v.threads[t.id] = t
	if !t.daemon {
		v.nonDaemon++
	}
	v.stats.ThreadsSpawned++
	v.mu.Unlock()

	if l := v.AuditLog(); l.Enabled(audit.CatThread) {
		detail := "thread " + t.name + " group " + t.group.Name()
		if t.daemon {
			detail += " daemon"
		}
		l.Emit(audit.Event{Cat: audit.CatThread, Verb: "spawn",
			App: t.appTag.Load(), Thread: int64(t.id),
			Detail: detail})
	}

	// Hand the thread to a parked carrier, or start a new one.
	select {
	case v.carriers <- t:
	default:
		go v.carry(t)
	}
	return t, nil
}

// maxIdleCarriers bounds how many carriers may park between threads. A
// carrier finishing a body while this many are already parked exits
// instead. On a 2-vCPU host a 4 s perfbench session run peaked at 7
// idle carriers, and 99.97% of its spawns reused a parked one; the
// bound doubles that peak so bursts of short-lived threads still find
// a grown stack.
const maxIdleCarriers = 16

// carry is a carrier: a goroutine that runs thread bodies back to back,
// so a thread starts on a stack that earlier threads already grew
// instead of a fresh 2 KiB one that the launch path copies up several
// times. Between bodies the carrier parks on v.carriers holding no
// reference to the finished thread. It exits when the VM halts or when
// parking would exceed maxIdleCarriers. A body that calls
// runtime.Goexit ends its carrier inside t.runBody, before the carrier
// counts itself idle.
func (v *VM) carry(t *Thread) {
	for {
		t.runBody()
		// Drop the finished thread explicitly rather than relying on
		// stack liveness, which unoptimised builds do not narrow.
		t = nil
		if v.idleCarriers.Add(1) > maxIdleCarriers {
			v.idleCarriers.Add(-1)
			return
		}
		select {
		case t = <-v.carriers:
			v.idleCarriers.Add(-1)
		case <-v.stopAll:
			v.idleCarriers.Add(-1)
			return
		}
	}
}

// runBody runs the thread's body. finish is deferred, so a panicking or
// Goexit-ing body still releases its bookkeeping; a panic then unwinds
// through carry and, unless core contained it, crashes the process as
// it would from a dedicated goroutine.
func (t *Thread) runBody() {
	t.state.Store(int32(StateRunnable))
	defer t.finish()
	// Callers may hold a *Thread long after it ends (Application keeps
	// its main thread); it must not keep the body's captures alive.
	run := t.run
	t.run = nil
	run(t)
}

// finish unregisters the thread and fires idle detection. It is invoked
// via defer so that a panicking thread body still releases its
// bookkeeping; the panic (other than the cooperative unwind used by
// Application.Exit, which core recovers earlier) is re-raised by the
// runtime after this returns.
func (t *Thread) finish() {
	t.state.Store(int32(StateTerminated))
	v := t.vm

	v.mu.Lock()
	delete(v.threads, t.id)
	v.stats.ThreadsTerminated++
	idle := false
	if !t.daemon {
		v.nonDaemon--
		idle = v.nonDaemon == 0 && !v.halted
	}
	v.mu.Unlock()

	if l := v.AuditLog(); l.Enabled(audit.CatThread) {
		l.Emit(audit.Event{Cat: audit.CatThread, Verb: "exit",
			App: t.appTag.Load(), Thread: int64(t.id),
			Detail: "thread " + t.name + " group " + t.group.Name()})
	}

	// Pay back the admission charge before onEmpty can fire: when the
	// application is torn down, its thread counts are already settled.
	if t.admitRelease != nil {
		t.admitRelease()
		t.admitRelease = nil
	}
	t.group.remove(t)
	close(t.done)
	if t.onExit != nil {
		t.onExit(t)
	}
	if idle {
		v.onIdle()
	}
}

// ID returns the thread's VM-unique identifier.
func (t *Thread) ID() ThreadID { return t.id }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// IsDaemon reports whether the thread is a daemon thread.
func (t *Thread) IsDaemon() bool { return t.daemon }

// Group returns the thread's group.
func (t *Thread) Group() *ThreadGroup { return t.group }

// VM returns the owning virtual machine.
func (t *Thread) VM() *VM { return t.vm }

// State returns the thread's lifecycle state.
func (t *Thread) State() ThreadState { return ThreadState(t.state.Load()) }

// String implements fmt.Stringer.
func (t *Thread) String() string {
	kind := "user"
	if t.daemon {
		kind = "daemon"
	}
	return fmt.Sprintf("Thread[%d %q %s group=%q %s]", t.id, t.name, kind, t.group.Name(), t.State())
}

// signalStop closes the cooperative stop channel once.
func (t *Thread) signalStop() {
	t.stopOnce.Do(func() { close(t.stop) })
}

// Stop requests cooperative termination of the thread. The body should
// observe StopChan / Stopped and unwind. (Genuinely forcing a goroutine
// to die is impossible in Go; the JDK deprecated Thread.stop for closely
// related reasons.)
func (t *Thread) Stop() { t.signalStop() }

// StopChan returns a channel closed when the thread has been asked to
// stop (or the VM halts).
func (t *Thread) StopChan() <-chan struct{} { return t.stop }

// Stopped reports whether the thread has been asked to stop.
func (t *Thread) Stopped() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

// Interrupt sets the thread's interrupt flag.
func (t *Thread) Interrupt() { t.interrupted.Store(true) }

// Interrupted reports and clears the interrupt flag, as in Java.
func (t *Thread) Interrupted() bool { return t.interrupted.Swap(false) }

// IsInterrupted reports the interrupt flag without clearing it.
func (t *Thread) IsInterrupted() bool { return t.interrupted.Load() }

// Join blocks until the thread body has returned.
func (t *Thread) Join() { <-t.done }

// Done returns a channel closed when the thread body has returned.
func (t *Thread) Done() <-chan struct{} { return t.done }

// PushFrame pushes a security frame. Owner-thread only.
func (t *Thread) PushFrame(f Frame) { t.frames = append(t.frames, f) }

// PopFrame pops the top security frame. Owner-thread only.
func (t *Thread) PopFrame() {
	if n := len(t.frames); n > 0 {
		t.frames = t.frames[:n-1]
	}
}

// Frames returns the thread's security frame stack, innermost (most
// recent call) last. The returned slice must not be mutated; it is only
// valid to read from the thread itself.
func (t *Thread) Frames() []Frame { return t.frames }

// FrameDepth returns the current security stack depth.
func (t *Thread) FrameDepth() int { return len(t.frames) }

// MarkTopFramePrivileged flags the innermost frame as a doPrivileged
// boundary and returns a restore function. Owner-thread only.
func (t *Thread) MarkTopFramePrivileged() (restore func()) {
	n := len(t.frames)
	if n == 0 {
		return func() {}
	}
	prev := t.frames[n-1].Privileged
	t.frames[n-1].Privileged = true
	return func() {
		// The stack may have shrunk below the marked frame before the
		// restore runs (e.g. deferred pops on an unwinding thread);
		// restoring then would index out of range.
		if len(t.frames) >= n {
			t.frames[n-1].Privileged = prev
		}
	}
}

// SetAppTag binds the owning application's ID to the thread. The core
// package sets it when it binds a thread to an application; 0 means a
// system thread.
func (t *Thread) SetAppTag(app int64) { t.appTag.Store(app) }

// SetAppRef stores the owning application object in the thread's
// dedicated lock-free slot (see appRef).
func (t *Thread) SetAppRef(v any) { t.appRef.Store(&v) }

// AppRef returns the owning application object bound with SetAppRef,
// or nil. A single atomic load.
func (t *Thread) AppRef() any {
	p := t.appRef.Load()
	if p == nil {
		return nil
	}
	return *p
}

// AppTag returns the owning application's ID, or 0.
func (t *Thread) AppTag() int64 { return t.appTag.Load() }

// SetSecurityContext stores the thread's security context in the
// dedicated lock-free slot. The security package owns the value's
// type; the VM kernel only carries it (as with Frame.Domain, this
// preserves the layering — vm does not import security).
func (t *Thread) SetSecurityContext(v any) {
	t.secCtx.Store(&v)
}

// SecurityContext returns the thread's security context, or nil if
// none was bound.
func (t *Thread) SecurityContext() any {
	p := t.secCtx.Load()
	if p == nil {
		return nil
	}
	return *p
}

// SetLocal stores a thread-local value. Keys are namespaced by
// convention ("security.userPermissions", "core.app", ...).
func (t *Thread) SetLocal(key string, v any) {
	t.localsMu.Lock()
	defer t.localsMu.Unlock()
	if t.locals == nil {
		t.locals = make(map[string]any)
	}
	t.locals[key] = v
}

// Local retrieves a thread-local value.
func (t *Thread) Local(key string) (any, bool) {
	t.localsMu.Lock()
	defer t.localsMu.Unlock()
	v, ok := t.locals[key]
	return v, ok
}
