// Package core implements the paper's primary contribution: secure
// multi-processing inside a single virtual machine. It defines the
// Application abstraction of Section 5.1 (an application is a set of
// threads with per-application state: running user, standard streams,
// current directory, properties, and a reloaded System class), the
// launch/exit lifecycle (Features 1–2), the notion of a running user
// (Features 3–4), the combination of code-source-based and user-based
// access control (Feature 5), multi-application-aware system state
// (Features 6, 8) and the split between the system security manager
// and per-application security managers (Feature 9).
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/audit"
	"mpj/internal/classes"
	"mpj/internal/netsim"
	"mpj/internal/objspace"
	"mpj/internal/security"
	"mpj/internal/user"
	"mpj/internal/vfs"
	"mpj/internal/vm"
)

// AuditDir is where the platform persists the hash-chained audit log
// segments inside the VFS.
const AuditDir = "/var/audit"

// Errors returned by the core layer.
var (
	// ErrUnknownProgram is returned by Exec for unregistered programs.
	ErrUnknownProgram = errors.New("core: unknown program")

	// ErrAppDestroyed is returned for operations on a destroyed
	// application.
	ErrAppDestroyed = errors.New("core: application destroyed")

	// ErrShutdown is returned when the platform is shutting down.
	ErrShutdown = errors.New("core: platform shut down")
)

// SystemClassName is the per-application reloaded class of Section 5.5.
const SystemClassName = "java.lang.System"

// SystemPropertiesClassName is the shared class of Figure 5 that holds
// truly VM-wide properties.
const SystemPropertiesClassName = "java.lang.SystemProperties"

// Config configures a Platform.
type Config struct {
	// Name names the underlying VM.
	Name string

	// Policy is the system security policy. If nil, DefaultPolicy() is
	// used.
	Policy *security.Policy

	// Users is the account database. If nil, an empty one is created.
	Users *user.DB

	// FS is the filesystem. If nil, an empty one with a standard
	// skeleton (/etc /tmp /home) is created.
	FS *vfs.FS

	// Net is the network. If nil, an empty network with a "localhost"
	// host is created.
	Net *netsim.Network

	// ReloadClasses lists class names every application loader
	// redefines instead of delegating (Section 5.5). Defaults to
	// [SystemClassName].
	ReloadClasses []string

	// ExitWhenIdle makes the VM halt once the last application
	// finishes, reproducing the classical Figure 1 lifecycle. When
	// false the platform stays up until Shutdown.
	ExitWhenIdle bool

	// Props seeds the shared system properties.
	Props map[string]string

	// HostName is this VM's name on the (possibly shared) network;
	// outbound connections originate from it. Defaults to "localhost".
	HostName string

	// Quotas sets per-user admission quotas (apps, threads, queued
	// events, pending audit records). The zero value disables all quota
	// accounting.
	Quotas QuotaConfig

	// AuditMerkleBatch is the audit log's Merkle group-commit size in
	// records (audit.Config.MerkleBatch). Zero uses the audit default.
	AuditMerkleBatch int

	// AuditMerkleWait bounds how long a partial audit batch may be held
	// waiting to fill (audit.Config.MerkleWait). Zero uses the default.
	AuditMerkleWait time.Duration

	// AuditChainPerRecord selects the legacy per-record hash-chain audit
	// format (v1 segments) instead of Merkle batch commits.
	AuditChainPerRecord bool

	// NoLaunchTemplates disables the sealed application-template fast
	// path: every Exec re-derives the class closure through a fresh
	// child loader, as before templates existed. Benchmarks use it to
	// measure the cold path; production leaves it off.
	NoLaunchTemplates bool
}

// Platform is the assembled multi-processing virtual machine: the VM
// kernel plus every substrate, the program registry, and the
// application table.
type Platform struct {
	vm      *vm.VM
	fs      *vfs.FS
	net     *netsim.Network
	users   *user.DB
	policy  *security.Policy
	sysMgr  *security.SystemManager
	classes *classes.Registry
	boot    *classes.Loader
	props   *classes.SystemProperties
	reload  []string

	hostName string
	programs *ProgramRegistry
	objects  *objspace.Space
	audit    *audit.Log

	mu      sync.Mutex
	apps    map[AppID]*Application
	nextApp AppID
	downErr error

	svcMu    sync.RWMutex
	services map[string]any

	exitWhenIdle bool
	releaseHold  func()
	display      displayHolder

	reap     chan *Application
	reapDone chan struct{}

	// Sealed application templates: one lazily built slot per program
	// name, invalidated by the class-registry generation. See
	// classes.Template.
	noTemplates    bool
	templates      sync.Map // program name -> *templateSlot
	templateBuilds atomic.Int64

	// groupApps maps an application's thread-group ID to the
	// application, so the kernel-level thread-admission hook can charge
	// spawns to the right user without core imports in vm.
	groupApps sync.Map // int64 group ID -> *Application

	// quotas is the per-user admission ledger; nil when no quota is
	// configured (the zero-cost default).
	quotas *quotaTable

	// userPerms caches the sealed per-user permission collection keyed
	// by policy generation, so binding a launching thread's security
	// context is a map hit instead of a policy derivation.
	userPerms sync.Map // user name -> *userPermEntry
}

// templateSlot holds one program's atomically published template; mu
// serializes rebuilds so a storm of launches after an invalidation
// derives the closure once, not once per launch.
type templateSlot struct {
	mu  sync.Mutex
	tpl atomic.Pointer[classes.Template]
}

// userPermEntry is a policy-generation-stamped sealed permission set.
type userPermEntry struct {
	gen   uint64
	perms *security.Permissions
}

// DefaultPolicy returns the policy sketched in Section 5.3 of the
// paper:
//
//   - system code is fully trusted;
//   - local application code may exercise the permissions of its
//     running user, read system properties, and open windows;
//   - the login program (alone) may set the running user;
//   - every user may use /tmp;
//
// Per-user home-directory grants are added by AddUser.
func DefaultPolicy() *security.Policy {
	return security.MustParsePolicy(`
// Trusted system classes.
grant codeBase "file:/system/-" {
    permission all;
};
// Rule 1 of Section 5.3: local applications exercise their running
// users' permissions.
grant codeBase "file:/local/-" {
    permission user;
    permission property "*", "read";
    permission awt "*";
    permission runtime "readTerminal";
    // The "ipc." namespace of the shared-object space is open to all
    // local applications (Section 8 extension).
    permission object "ipc.*", "bind,lookup,unbind";
};
// Only the login program may reset its own running user; note that it
// is the PROGRAM that is granted the privilege, not the user running
// it (Section 5.2).
grant codeBase "file:/local/login" {
    permission runtime "setUser";
};
// su, like login, holds setUser through its code source.
grant codeBase "file:/local/su" {
    permission runtime "setUser";
};
// The kill utility may manipulate foreign thread groups; like Unix
// kill(1) it enforces a same-user rule itself.
grant codeBase "file:/local/kill" {
    permission runtime "modifyThread";
    permission runtime "modifyThreadGroup";
};
// Only root may control the kernel audit subsystem (auditctl) and the
// remote-playground worker pool (the playground builtin).
grant user "root" {
    permission runtime "auditControl";
    permission runtime "playgroundControl";
};
// Scratch space for everybody.
grant user "*" {
    permission file "/tmp", "read";
    permission file "/tmp/-", "read,write,delete";
    permission file "/", "read";
    permission file "/home", "read";
    permission file "/etc/motd", "read";
};
`)
}

// NewPlatform assembles and boots a multi-processing VM.
func NewPlatform(cfg Config) (*Platform, error) {
	if cfg.Name == "" {
		cfg.Name = "mpj"
	}
	// Policy precedence: explicit Config.Policy, then a persisted
	// /etc/policy on a supplied filesystem, then the built-in default.
	if cfg.Policy == nil && cfg.FS != nil {
		pol, err := loadPolicyFile(cfg.FS)
		if err != nil {
			return nil, err
		}
		cfg.Policy = pol
	}
	if cfg.Policy == nil {
		cfg.Policy = DefaultPolicy()
	}
	noUserDB := cfg.Users == nil
	if noUserDB {
		cfg.Users = user.NewDB()
	}
	if cfg.FS == nil {
		cfg.FS = vfs.New()
		for _, d := range []struct {
			path string
			mode vfs.Mode
		}{
			{"/etc", 0o755},
			{"/home", 0o755},
			{"/tmp", 0o777},
			{"/system", 0o755},
		} {
			if err := cfg.FS.MkdirAll(vfs.Root, d.path, d.mode); err != nil {
				return nil, fmt.Errorf("core: init fs: %w", err)
			}
		}
	}
	if cfg.HostName == "" {
		cfg.HostName = "localhost"
	}
	if cfg.Net == nil {
		cfg.Net = netsim.New()
	}
	cfg.Net.AddHost(cfg.HostName)
	if cfg.ReloadClasses == nil {
		cfg.ReloadClasses = []string{SystemClassName}
	}

	idle := vm.StayOnIdle
	if cfg.ExitWhenIdle {
		idle = vm.HaltOnIdle
	}
	machine := vm.New(vm.Config{Name: cfg.Name, IdlePolicy: idle})

	defaults := map[string]string{
		"os.name":      "mpj-os",
		"os.version":   "1.0",
		"java.version": "1.2-mp",
		"java.vendor":  "mpj reproduction",
		"vm.name":      cfg.Name,
	}
	for k, v := range cfg.Props {
		defaults[k] = v
	}

	p := &Platform{
		vm:       machine,
		hostName: cfg.HostName,
		fs:       cfg.FS,
		net:      cfg.Net,
		users:    cfg.Users,
		policy:   cfg.Policy,
		sysMgr:   security.NewSystemManager(),
		classes:  classes.NewRegistry(),
		props:    classes.NewSystemProperties(defaults),
		reload:   cfg.ReloadClasses,
		programs: NewProgramRegistry(),
		objects:  objspace.New(),
		services: make(map[string]any),
		apps:     make(map[AppID]*Application),
		reap:     make(chan *Application, 16),
		reapDone: make(chan struct{}),

		noTemplates: cfg.NoLaunchTemplates,
	}
	p.boot = classes.NewBootstrapLoader(p.classes, p.policy)
	if cfg.Quotas.enabled() {
		p.quotas = newQuotaTable(cfg.Quotas)
		if cfg.Quotas.MaxThreadsPerUser > 0 {
			machine.SetThreadAdmission(p.admitThread)
		}
	}

	// If the filesystem already carries an account database (a platform
	// "reboot" over a persistent FS) and no explicit user DB was given,
	// restore accounts, homes and per-user grants from it.
	if noUserDB {
		if err := p.loadPasswd(); err != nil {
			return nil, err
		}
	}

	// Register the system classes every application loader will see.
	sysSource := security.NewCodeSource("file:/system/rt")
	for _, cf := range []*classes.ClassFile{
		{Name: SystemClassName, Super: classes.ObjectClassName, Source: sysSource},
		{Name: SystemPropertiesClassName, Super: classes.ObjectClassName, Source: sysSource},
	} {
		if err := p.classes.Register(cf); err != nil {
			return nil, fmt.Errorf("core: register system class: %w", err)
		}
	}

	// Hold the VM through bootstrap: a freshly booted VM has no
	// non-daemon threads yet and must not be declared idle. With
	// ExitWhenIdle the hold is released once the first application's
	// main thread exists; otherwise it persists until Shutdown.
	p.exitWhenIdle = cfg.ExitWhenIdle
	p.releaseHold = machine.Hold()

	// The background reaper of Section 5.1 ("a background thread will
	// eventually clean up the application") lives in the system thread
	// group, like the other VM service threads.
	_, err := machine.SpawnThread(vm.ThreadSpec{
		Group:  machine.SystemGroup(),
		Name:   "app-reaper",
		Daemon: true,
		Run:    p.reaperLoop,
	})
	if err != nil {
		return nil, fmt.Errorf("core: start reaper: %w", err)
	}

	// Assemble the kernel audit subsystem: hash-chained segments
	// persisted under AuditDir, a drainer daemon in the system group,
	// and emission hooks installed into every substrate.
	store, err := vfs.NewAuditStore(p.fs, AuditDir)
	if err != nil {
		return nil, fmt.Errorf("core: init audit store: %w", err)
	}
	p.audit = audit.New(audit.Config{
		Store:          store,
		MerkleBatch:    cfg.AuditMerkleBatch,
		MerkleWait:     cfg.AuditMerkleWait,
		ChainPerRecord: cfg.AuditChainPerRecord,
	})
	if p.quotas != nil && cfg.Quotas.MaxPendingAuditPerUser > 0 {
		p.audit.SetAdmission(&auditAdmission{p: p})
	}
	_, err = machine.SpawnThread(vm.ThreadSpec{
		Group:  machine.SystemGroup(),
		Name:   "audit-drainer",
		Daemon: true,
		Run: func(t *vm.Thread) {
			p.audit.Run(t.StopChan())
		},
	})
	if err != nil {
		return nil, fmt.Errorf("core: start audit drainer: %w", err)
	}
	machine.SetAuditLog(p.audit)
	p.fs.SetAuditLog(p.audit)
	p.net.SetAuditLog(p.audit)
	p.objects.SetAuditLog(p.audit)

	return p, nil
}

// VM returns the underlying virtual machine.
func (p *Platform) VM() *vm.VM { return p.vm }

// FS returns the filesystem substrate.
func (p *Platform) FS() *vfs.FS { return p.fs }

// Net returns the network substrate.
func (p *Platform) Net() *netsim.Network { return p.net }

// HostName returns this VM's name on the network.
func (p *Platform) HostName() string { return p.hostName }

// Users returns the account database.
func (p *Platform) Users() *user.DB { return p.users }

// Policy returns the system security policy.
func (p *Platform) Policy() *security.Policy { return p.policy }

// SystemManager returns the system security manager of Section 5.6.
func (p *Platform) SystemManager() *security.SystemManager { return p.sysMgr }

// Audit returns the VM-wide audit log.
func (p *Platform) Audit() *audit.Log { return p.audit }

// SharedProperties returns the VM-wide property store of Figure 5.
func (p *Platform) SharedProperties() *classes.SystemProperties { return p.props }

// ClassRegistry returns the class path registry.
func (p *Platform) ClassRegistry() *classes.Registry { return p.classes }

// BootLoader returns the bootstrap class loader.
func (p *Platform) BootLoader() *classes.Loader { return p.boot }

// Programs returns the program registry.
func (p *Platform) Programs() *ProgramRegistry { return p.programs }

// SetService publishes a named platform-wide service object — kernel
// machinery (like the remote-playground pool) that programs and shell
// builtins look up by name rather than thread through every launch.
// A nil value removes the service.
func (p *Platform) SetService(name string, v any) {
	p.svcMu.Lock()
	defer p.svcMu.Unlock()
	if v == nil {
		delete(p.services, name)
		return
	}
	p.services[name] = v
}

// Service returns the named platform service, if published.
func (p *Platform) Service(name string) (any, bool) {
	p.svcMu.RLock()
	defer p.svcMu.RUnlock()
	v, ok := p.services[name]
	return v, ok
}

// AddUser creates an account, its home directory, and the per-user
// policy grant of Section 5.3 ("User Alice can access all files in
// /home/alice").
func (p *Platform) AddUser(name, password string) (*user.User, error) {
	u, err := p.users.Add(name, password, "", "")
	if err != nil {
		return nil, err
	}
	if err := p.fs.MkdirAll(vfs.Root, u.Home, 0o700); err != nil {
		return nil, fmt.Errorf("core: create home: %w", err)
	}
	if err := p.fs.Chown(vfs.Root, u.Home, name); err != nil {
		return nil, fmt.Errorf("core: chown home: %w", err)
	}
	p.policy.AddGrant(&security.Grant{
		User: name,
		Perms: []security.Permission{
			security.NewFilePermission(u.Home, "read"),
			security.NewFilePermission(u.Home+"/-", "read,write,delete,execute"),
		},
	})
	return u, nil
}

// ExecWait launches an application and blocks until it finishes,
// returning its exit code — the synchronous launch shape every
// scenario driver in the load harness (and most tests) wants.
func (p *Platform) ExecWait(spec ExecSpec) (int, error) {
	app, err := p.Exec(spec)
	if err != nil {
		return -1, err
	}
	return app.WaitFor(), nil
}

// Applications returns a snapshot of the live applications.
func (p *Platform) Applications() []*Application {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Application, 0, len(p.apps))
	for _, a := range p.apps {
		out = append(out, a)
	}
	return out
}

// FindApplication returns the live application with the given id.
func (p *Platform) FindApplication(id AppID) *Application {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.apps[id]
}

// QuotaStats returns cumulative per-user admission statistics. The
// zero value is returned when no quota is configured.
func (p *Platform) QuotaStats() QuotaStats {
	if p.quotas == nil {
		return QuotaStats{}
	}
	return p.quotas.snapshot()
}

// TemplateBuilds reports how many application-template derivations the
// platform has performed — launches per build is the template cache's
// hit ratio.
func (p *Platform) TemplateBuilds() int64 { return p.templateBuilds.Load() }

// ProgramTemplate returns the program's currently cached sealed
// template, or nil if none has been built yet. Tests and load checks
// use pointer identity to assert a template survived a storm
// un-rebuilt.
func (p *Platform) ProgramTemplate(name string) *classes.Template {
	if v, ok := p.templates.Load(name); ok {
		return v.(*templateSlot).tpl.Load()
	}
	return nil
}

// admitThread is the vm.ThreadAdmission hook: spawns into an
// application's group are charged to that application's launch user.
// System-group spawns pass through uncharged.
func (p *Platform) admitThread(spec *vm.ThreadSpec) (func(), error) {
	q := p.quotas
	if q == nil {
		return nil, nil
	}
	v, ok := p.groupApps.Load(spec.Group.ID())
	if !ok {
		return nil, nil
	}
	app := v.(*Application)
	release, err := q.admitThread(app.id)
	if err != nil {
		if l := p.audit; l.Enabled(audit.CatApp) {
			l.Emit(audit.Event{Cat: audit.CatApp, Verb: "quota-exceeded",
				User: app.userName(), App: int64(app.id),
				Detail: "thread " + spec.Name})
		}
		return nil, fmt.Errorf("%w: threads (user %s)", ErrQuotaExceeded, app.userName())
	}
	return release, nil
}

// auditAdmission adapts the quota ledger to audit.Admission: a user
// over MaxPendingAuditPerUser has further records dropped at emission,
// and the edge into backpressure is itself audited — kernel-attributed
// (empty User), so the notice is never gated by the quota it reports.
type auditAdmission struct{ p *Platform }

func (a *auditAdmission) AdmitRecord(userName string) bool {
	ok, transitioned := a.p.quotas.admitAuditRecord(userName)
	if !ok && transitioned && a.p.audit.Enabled(audit.CatApp) {
		a.p.audit.Emit(audit.Event{Cat: audit.CatApp, Verb: "quota-exceeded",
			Detail: "audit backlog user=" + userName})
	}
	return ok
}

func (a *auditAdmission) ReleaseRecords(userName string, n int) {
	a.p.quotas.releaseAuditRecords(userName, n)
}

// userPermissions returns the sealed permission collection for a user,
// cached per policy generation. The collection is concurrency-safe and
// shared across every thread bound for that user.
func (p *Platform) userPermissions(name string) *security.Permissions {
	gen := p.policy.Generation()
	if v, ok := p.userPerms.Load(name); ok {
		if e := v.(*userPermEntry); e.gen == gen {
			return e.perms
		}
	}
	perms := p.policy.PermissionsForUser(name)
	p.userPerms.Store(name, &userPermEntry{gen: gen, perms: perms})
	return perms
}

// templateFor returns a valid sealed template for the program,
// building (or rebuilding, after a registry change) it under the
// program's slot lock so concurrent launches share one derivation. A
// warm launch only loads the slot; LoadOrStore (which allocates the
// candidate slot and boxes the name) runs on a miss.
func (p *Platform) templateFor(prog *Program) (*classes.Template, error) {
	v, ok := p.templates.Load(prog.Name)
	if !ok {
		v, _ = p.templates.LoadOrStore(prog.Name, &templateSlot{})
	}
	slot := v.(*templateSlot)
	if tpl := slot.tpl.Load(); tpl != nil && tpl.Valid() {
		return tpl, nil
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if tpl := slot.tpl.Load(); tpl != nil && tpl.Valid() {
		return tpl, nil
	}
	tpl, err := classes.BuildTemplate(p.boot, p.reload, SystemClassName, prog.ClassName)
	if err != nil {
		return nil, err
	}
	p.templateBuilds.Add(1)
	slot.tpl.Store(tpl)
	return tpl, nil
}

// reaperLoop processes scheduled application destructions.
func (p *Platform) reaperLoop(t *vm.Thread) {
	defer close(p.reapDone)
	for {
		select {
		case app := <-p.reap:
			app.destroy()
		case <-t.StopChan():
			// Drain anything already queued, then quit.
			for {
				select {
				case app := <-p.reap:
					app.destroy()
				default:
					return
				}
			}
		}
	}
}

// finishApplication runs when the last non-daemon thread of an
// application's group terminates. When the group is already completely
// quiet — the common exit shape: main returned, no daemons linger — the
// application is destroyed inline on the terminating thread, saving the
// reaper-handoff wakeup on the launch+exit latency path. A group with
// stragglers (daemon threads that need the stop/grace machinery) still
// goes through the reaper so the grace wait never runs on an
// application thread.
func (p *Platform) finishApplication(app *Application) {
	if app.group.ActiveCount() == 0 {
		app.destroy()
		return
	}
	p.scheduleDestruction(app)
}

// scheduleDestruction hands an application to the background reaper.
func (p *Platform) scheduleDestruction(app *Application) {
	select {
	case p.reap <- app:
	case <-p.vm.StopChan():
		// VM is halting; destroy inline.
		app.destroy()
	}
}

// Shutdown halts the platform: every application is destroyed and the
// VM exits. Safe to call more than once.
func (p *Platform) Shutdown() {
	p.mu.Lock()
	if p.downErr == nil {
		p.downErr = ErrShutdown
	}
	apps := make([]*Application, 0, len(p.apps))
	for _, a := range p.apps {
		apps = append(apps, a)
	}
	p.mu.Unlock()
	for _, a := range apps {
		a.destroy()
	}
	if p.releaseHold != nil {
		p.releaseHold()
	}
	p.vm.Exit(0)
	<-p.reapDone
	// The drainer performed its final flush on the VM stop signal; one
	// more synchronous drain catches events emitted during teardown.
	p.audit.Sync()
}
