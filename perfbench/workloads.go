package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"mpj/internal/core"
	"mpj/internal/coreutils"
	"mpj/internal/events"
	"mpj/internal/load"
	"mpj/internal/objspace"
	"mpj/internal/playground"
	"mpj/internal/security"
	"mpj/internal/vm"
)

// population and theta fix the synthetic user base: 64 accounts whose
// activity is zipf-skewed, so a few users are hot and most are cold.
const (
	population = 64
	theta      = 0.99
)

// errWrong marks an op whose program output was wrong (as opposed to
// an op that failed to complete): it makes the run incorrect.
var errWrong = errors.New("wrong output")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// errStalled is returned by an op whose reply never came before the
// run's stall deadline.
var errStalled = errors.New("op stalled past the run deadline")

// kindDef is one operation kind of a workload mix.
type kindDef struct {
	Name   string
	Weight int
}

// workload is a fixed mix of operation kinds plus the set-up that
// builds its operations on a fresh platform.
type workload struct {
	Name  string
	Why   string
	Kinds []kindDef
	setup func(e *env) ([]opFunc, error)
}

// opFunc runs one operation as user u on behalf of client c.
type opFunc func(c *client, u int) error

var workloads = []workload{
	{
		Name: "session",
		Why: "login, exec, pipeline, remote (paper E1/E10/E11): audit drain, launch, pipes, thread spawn; " +
			"baseline trail_verified=0: Emit takes its seq before the shard lock (internal/audit/log.go:314-316)",
		Kinds: []kindDef{{"login", 2}, {"exec", 4}, {"pipeline", 2}, {"remote", 2}},
		setup: setupSession,
	},
	{
		Name: "interactive",
		Why: "long-lived apps, no launches and ~0 audit records per op: events, vfs, objspace; " +
			"the bypass on which launch, audit and streams changes must not move",
		Kinds: []kindDef{{"event", 4}, {"file", 3}, {"transfer", 3}},
		setup: setupInteractive,
	},
	{
		Name: "guard",
		Why: "one reference monitor two ways: allowed reads hit the decision cache, refused ones walk the stack and audit; " +
			"baseline trail_verified=0, same cause as session",
		Kinds: []kindDef{{"read_allowed", 1}, {"read_refused", 1}},
		setup: setupGuard,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// gen draws a client's op-kind and user sequence. It owns its rng, so
// the sequence depends only on the seed, the client index and the
// mix — never on what the ops themselves consume.
type gen struct {
	rng   *rand.Rand
	users *objspace.Zipf
	cum   []int
}

func newGen(seed int64, client int, kinds []kindDef) *gen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	g := &gen{rng: rng, users: objspace.NewZipf(rng, theta, population)}
	total := 0
	for _, k := range kinds {
		total += k.Weight
		g.cum = append(g.cum, total)
	}
	return g
}

// next returns the next op kind (an index into the mix) and user.
func (g *gen) next() (kind, user int) {
	r := g.rng.Intn(g.cum[len(g.cum)-1])
	for r >= g.cum[kind] {
		kind++
	}
	return kind, g.users.Next()
}

// scenario runs a load scenario's set-up and adapts its op; its
// post-drain check joins the run's checks.
func (e *env) scenario(name string) (opFunc, error) {
	sc, ok := load.ScenarioByName(name)
	if !ok {
		return nil, fmt.Errorf("no load scenario %q", name)
	}
	op, check, err := sc.Setup(e.Env)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", name, err)
	}
	e.checks = append(e.checks, check)
	return func(c *client, u int) error { return op(c.id, u, c.oprng) }, nil
}

func setupSession(e *env) ([]opFunc, error) {
	login, err := e.scenario("login")
	if err != nil {
		return nil, err
	}
	// The exec scenario registers and warms the no-op program and
	// checks its template; the op is ours so that Exec and WaitFor are
	// timed apart.
	if _, err := e.scenario("exec"); err != nil {
		return nil, err
	}
	pipeline, err := e.scenario("pipeline")
	if err != nil {
		return nil, err
	}
	remote, err := setupRemote(e)
	if err != nil {
		return nil, err
	}
	exec := func(c *client, u int) error {
		t0 := c.mark()
		app, err := e.P.Exec(core.ExecSpec{Program: "load-noop", User: e.Users[u]})
		if err != nil {
			return err
		}
		t1 := c.mark()
		code := app.WaitFor()
		c.span(spLaunch, t0, t1)
		c.span(spRunExit, t1, c.mark())
		if code != 0 {
			return wrongf("exec as %s: exit %d", e.Users[u].Name, code)
		}
		return nil
	}
	return []opFunc{login, exec, pipeline, remote}, nil
}

// remoteWorkers matches the load harness's remote scenario: two
// worker VMs behind the playground dispatcher.
const remoteWorkers = 2

// setupRemote is the load harness's remote scenario with Submit and
// Wait timed apart and the session's output checked.
func setupRemote(e *env) (opFunc, error) {
	mgr := playground.NewManager(e.P, playground.Config{Capacity: 32, QueueCap: 256}, coreutils.InstallAll)
	e.closers = append(e.closers, mgr.Close)
	for i := 0; i < remoteWorkers; i++ {
		if _, err := mgr.AddLocalWorker(""); err != nil {
			return nil, fmt.Errorf("remote: boot worker %d: %w", i, err)
		}
	}
	e.checks = append(e.checks, func() error {
		st := mgr.Stats()
		if st.Submitted != st.Placed+st.Rejected {
			return fmt.Errorf("remote: submitted %d != placed %d + rejected %d", st.Submitted, st.Placed, st.Rejected)
		}
		if st.Placed != st.Completed+st.Failed {
			return fmt.Errorf("remote: placed %d != completed %d + failed %d", st.Placed, st.Completed, st.Failed)
		}
		return nil
	})
	e.stats = append(e.stats, func(s *statSnap) { s.pg = mgr.Stats() })
	return func(c *client, u int) error {
		c.out.Reset()
		t0 := c.mark()
		s, err := mgr.Submit(playground.SessionSpec{
			Program: "echo",
			Args:    []string{"remote"},
			User:    e.Users[u].Name,
			Stdout:  &c.out,
		})
		if err != nil {
			return err
		}
		t1 := c.mark()
		code, err := s.Wait()
		c.span(spSubmit, t0, t1)
		c.span(spWait, t1, c.mark())
		if err != nil {
			return err
		}
		if code != 0 || c.out.String() != "remote\n" {
			return wrongf("remote echo: exit %d, output %q", code, c.out.String())
		}
		return nil
	}, nil
}

func setupInteractive(e *env) ([]opFunc, error) {
	event, err := setupEvents(e)
	if err != nil {
		return nil, err
	}
	// The vfsio scenario's check asserts no "load-" file survives; the
	// op is ours so that write, read and remove are timed apart.
	if _, err := e.scenario("vfsio"); err != nil {
		return nil, err
	}
	fs := e.P.FS()
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	file := func(c *client, u int) error {
		usr := e.Users[u]
		c.files++
		path := usr.Home + "/load-" + strconv.Itoa(c.id) + "-" + strconv.Itoa(c.files)
		t0 := c.mark()
		if err := fs.WriteFile(usr.Name, path, payload, 0o600); err != nil {
			return err
		}
		t1 := c.mark()
		data, err := fs.ReadFile(usr.Name, path)
		if err != nil {
			return err
		}
		t2 := c.mark()
		err = fs.Remove(usr.Name, path)
		t3 := c.mark()
		c.span(spWrite, t0, t1)
		c.span(spRead, t1, t2)
		c.span(spRemove, t2, t3)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, payload) {
			return wrongf("file: read back %d bytes that differ from the %d written", len(data), len(payload))
		}
		return nil
	}
	xfer, err := e.scenario("objects")
	if err != nil {
		return nil, err
	}
	transfer := func(c *client, u int) error {
		t0 := c.mark()
		err := xfer(c, u)
		c.span(spAtomically, t0, c.mark())
		return err
	}
	return []opFunc{event, file, transfer}, nil
}

// eventHosts matches the load harness's events scenario: eight
// applications, each with one window and its own dispatcher.
const eventHosts = 8

// setupEvents is the load harness's events scenario with Post and the
// listener's delivery timed apart: the event's X carries the posting
// client, whose ack channel the listener signals.
func setupEvents(e *env) (opFunc, error) {
	display := e.P.Display()
	acks := make([]chan struct{}, e.Workers)
	for i := range acks {
		acks[i] = make(chan struct{}, 1)
	}
	ready := make(chan events.WindowID, eventHosts)
	if err := e.P.RegisterProgram(core.Program{Name: "bench-evhost", Main: func(ctx *core.Context, _ []string) int {
		w, err := ctx.OpenWindow("bench")
		if err != nil {
			return 1
		}
		_ = w.AddListener("ping", func(_ *vm.Thread, ev events.Event) { acks[ev.X] <- struct{}{} })
		ready <- w.ID()
		<-ctx.Thread().StopChan()
		return 0
	}}); err != nil {
		return nil, err
	}
	if err := e.hosts("bench-evhost", eventHosts); err != nil {
		return nil, err
	}
	wins := make([]events.WindowID, eventHosts)
	for i := range wins {
		wins[i] = <-ready
	}
	base := display.Stats()
	e.checks = append(e.checks, func() error {
		if !display.Quiesce(2 * time.Second) {
			return fmt.Errorf("events: queues did not drain")
		}
		st := display.Stats()
		posted := st.Posted - base.Posted
		if settled := st.Dispatched - base.Dispatched + st.Dropped - base.Dropped; posted != settled {
			return fmt.Errorf("events: posted %d != dispatched+dropped %d", posted, settled)
		}
		return nil
	})
	return func(c *client, u int) error {
		t0 := c.mark()
		if err := display.Post(events.Event{Window: wins[u%eventHosts], Component: "ping", Kind: events.KindAction, X: c.id}); err != nil {
			return err
		}
		t1 := c.mark()
		select {
		case <-acks[c.id]:
		case <-e.stall:
			return errStalled
		}
		c.span(spPost, t0, t1)
		c.span(spDeliver, t1, c.mark())
		return nil
	}, nil
}

// hosts launches n long-lived instances of program, the i-th as user
// i mod population, and stops them at teardown.
func (e *env) hosts(program string, n int) error {
	apps := make([]*core.Application, 0, n)
	e.closers = append(e.closers, func() {
		for _, app := range apps {
			app.RequestExit(0)
		}
		for _, app := range apps {
			app.WaitFor()
		}
	})
	for i := 0; i < n; i++ {
		app, err := e.P.Exec(core.ExecSpec{Program: program, Args: []string{strconv.Itoa(i)}, User: e.Users[i%len(e.Users)]})
		if err != nil {
			return fmt.Errorf("launch %s #%d: %w", program, i, err)
		}
		apps = append(apps, app)
	}
	return nil
}

// guardReq asks user U's guard application to read Path.
type guardReq struct {
	path  string
	timed bool
	reply chan guardReply
}

// guardReply carries the read's result and, for timed requests, when
// the application-side ReadFile started and ended.
type guardReply struct {
	data       []byte
	err        error
	start, end int64
}

// guardFile is the file each user's guard application serves.
const guardFile = "/guard.txt"

func guardContent(name string) string { return "guard file of " + name + "\n" }

// setupGuard starts one guard application per user. Each serves read
// requests through its own Context.ReadFile, so every read passes the
// security manager as that user: a read of the user's own file is
// allowed, a read of the next user's file is refused.
func setupGuard(e *env) ([]opFunc, error) {
	fs := e.P.FS()
	reqs := make([]chan guardReq, len(e.Users))
	for i, u := range e.Users {
		reqs[i] = make(chan guardReq)
		if err := fs.WriteFile(u.Name, u.Home+guardFile, []byte(guardContent(u.Name)), 0o600); err != nil {
			return nil, fmt.Errorf("guard: write %s: %w", u.Home+guardFile, err)
		}
	}
	if err := e.P.RegisterProgram(core.Program{Name: "bench-guard", Main: func(ctx *core.Context, args []string) int {
		i, err := strconv.Atoi(args[0])
		if err != nil {
			return 2
		}
		for {
			select {
			case r := <-reqs[i]:
				var rep guardReply
				if r.timed {
					rep.start = nanotime()
				}
				rep.data, rep.err = ctx.ReadFile(r.path)
				if r.timed {
					rep.end = nanotime()
				}
				r.reply <- rep
			case <-ctx.Thread().StopChan():
				return 0
			}
		}
	}}); err != nil {
		return nil, err
	}
	if err := e.hosts("bench-guard", len(e.Users)); err != nil {
		return nil, err
	}
	read := func(c *client, u int, path string) (guardReply, error) {
		select {
		case reqs[u] <- guardReq{path: path, timed: c.tr != nil, reply: c.guard}:
		case <-e.stall:
			return guardReply{}, errStalled
		}
		select {
		case rep := <-c.guard:
			return rep, nil
		case <-e.stall:
			return guardReply{}, errStalled
		}
	}
	allowed := func(c *client, u int) error {
		usr := e.Users[u]
		t0 := c.mark()
		rep, err := read(c, u, usr.Home+guardFile)
		if err != nil {
			return err
		}
		c.guardSpans(spReadAllowed, t0, c.mark(), rep)
		if rep.err != nil {
			return rep.err
		}
		if string(rep.data) != guardContent(usr.Name) {
			return wrongf("read_allowed %s: got %q", usr.Name, rep.data)
		}
		return nil
	}
	refused := func(c *client, u int) error {
		victim := e.Users[(u+1)%len(e.Users)]
		t0 := c.mark()
		rep, err := read(c, u, victim.Home+guardFile)
		if err != nil {
			return err
		}
		c.guardSpans(spReadRefused, t0, c.mark(), rep)
		return refusal(e.Users[u].Name, victim.Name, rep.err)
	}
	return []opFunc{allowed, refused}, nil
}

// refusal classifies the result of reading another user's file: only
// a security-manager denial is right; success is a wrong answer (the
// reference monitor let it through) and any other error is a failure.
func refusal(reader, victim string, err error) error {
	var denied *security.AccessControlError
	switch {
	case err == nil:
		return wrongf("read_refused: %s read %s's file", reader, victim)
	case errors.As(err, &denied):
		return nil
	default:
		return fmt.Errorf("read_refused: %s: %w", reader, err)
	}
}
