package playground

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"mpj/internal/core"
	"mpj/internal/events"
	"mpj/internal/netsim"
	"mpj/internal/objspace"
	"mpj/internal/streams"
	"mpj/internal/user"
	"mpj/internal/vm"
)

// Exit codes surfaced for playground-level failures.
const (
	// ExitOpenFailed is reported when the session program cannot be
	// launched on the worker.
	ExitOpenFailed = 255
	// ExitAuthFailed is reported when the open request's credentials
	// do not authenticate on the worker.
	ExitAuthFailed = 254
	// ExitWorkerLost is recorded by the dispatcher when a worker dies
	// with the session in flight.
	ExitWorkerLost = 253
	// ExitCanceled is the exit code a canceled session's application
	// is asked to finish with.
	ExitCanceled = 130
)

// SandboxUser is the default sacrificial account remote sessions run
// as on a worker — the playground model: untrusted code executes under
// a throwaway identity regardless of which origin user submitted it.
const SandboxUser = "sandbox"

// WorkerConfig configures a worker daemon.
type WorkerConfig struct {
	// SessionUser is the sacrificial account credential-less sessions
	// run as; it is created (with a home directory and the standard
	// per-user grant) if missing. Defaults to SandboxUser.
	SessionUser string
	// InboxCap bounds each session's inbound proxied-event queue;
	// overflow drops events (counted per session). Defaults to 1024.
	InboxCap int
}

// Worker turns a platform into a playground worker: a daemon accepting
// multiplexed session traffic from a dispatcher. Every session is a
// real application on this platform — its threads, streams, and
// permission checks are the worker VM's own.
type Worker struct {
	platform *core.Platform
	listener *netsim.Listener
	addr     netsim.Addr
	sandbox  *user.User
	inboxCap int

	mu     sync.Mutex
	conns  map[*workerConn]struct{}
	closed bool

	accepted atomic.Int64
	wg       sync.WaitGroup
}

// StartWorker binds the worker daemon on host:port of the platform's
// network and starts its accept loop on a VM system daemon thread.
func StartWorker(p *core.Platform, host string, port int, cfg WorkerConfig) (*Worker, error) {
	if cfg.SessionUser == "" {
		cfg.SessionUser = SandboxUser
	}
	if cfg.InboxCap <= 0 {
		cfg.InboxCap = 1024
	}
	sandbox, err := p.Users().Lookup(cfg.SessionUser)
	if err != nil {
		// The sandbox account's password is never accepted from the
		// wire (empty wire passwords select the sandbox path instead of
		// authenticating), so any value works; make it unguessable-ish
		// by tying it to the pointer-free platform name.
		sandbox, err = p.AddUser(cfg.SessionUser, "!playground!")
		if err != nil {
			return nil, fmt.Errorf("playground: create session user: %w", err)
		}
	}
	l, err := p.Net().Listen(host, port)
	if err != nil {
		return nil, fmt.Errorf("playground: start worker: %w", err)
	}
	w := &Worker{
		platform: p,
		listener: l,
		addr:     l.Addr(),
		sandbox:  sandbox,
		inboxCap: cfg.InboxCap,
		conns:    make(map[*workerConn]struct{}),
	}
	_, err = p.VM().SpawnThread(vm.ThreadSpec{
		Group:  p.VM().SystemGroup(),
		Name:   fmt.Sprintf("playground-%s", w.addr),
		Daemon: true,
		Run:    w.acceptLoop,
	})
	if err != nil {
		_ = l.Close()
		return nil, fmt.Errorf("playground: start worker: %w", err)
	}
	return w, nil
}

// Addr returns the worker's bound address.
func (w *Worker) Addr() netsim.Addr { return w.addr }

// Platform returns the worker's platform.
func (w *Worker) Platform() *core.Platform { return w.platform }

// ConnCount reports how many dispatcher connections were ever
// accepted — the multiplexing tests assert one per pool.
func (w *Worker) ConnCount() int64 { return w.accepted.Load() }

// SessionCount reports currently-live sessions across all connections.
func (w *Worker) SessionCount() int {
	w.mu.Lock()
	conns := make([]*workerConn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	n := 0
	for _, c := range conns {
		c.mu.Lock()
		n += len(c.sessions)
		c.mu.Unlock()
	}
	return n
}

// Close stops the worker abruptly: the listener and every dispatcher
// connection are torn down and live session applications are asked to
// exit. From the dispatcher's side this is indistinguishable from a
// crash — which is exactly what the failure tests want.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	conns := make([]*workerConn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	_ = w.listener.Close()
	for _, c := range conns {
		c.shutdown()
	}
	w.wg.Wait()
}

// acceptLoop serves dispatcher connections until the listener closes.
func (w *Worker) acceptLoop(t *vm.Thread) {
	for {
		conn, err := w.listener.Accept()
		if err != nil {
			return
		}
		if t.Stopped() {
			_ = conn.Close()
			return
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			_ = conn.Close()
			return
		}
		wc := &workerConn{w: w, m: newMux(conn), sessions: make(map[uint64]*workerSession)}
		w.conns[wc] = struct{}{}
		w.accepted.Add(1)
		w.wg.Add(1)
		w.mu.Unlock()
		go func() {
			defer w.wg.Done()
			wc.serve()
			w.mu.Lock()
			delete(w.conns, wc)
			w.mu.Unlock()
		}()
	}
}

// workerConn demultiplexes one dispatcher connection.
type workerConn struct {
	w *Worker
	m *mux

	mu       sync.Mutex
	sessions map[uint64]*workerSession
	down     bool
}

// serve runs the demux loop until the connection dies, then tears the
// surviving sessions down.
func (wc *workerConn) serve() {
	for {
		f, err := wc.m.recv()
		if err != nil {
			break
		}
		switch f.Op {
		case opOpen:
			wc.open(f)
		case opStdin:
			if s := wc.lookup(f.SID); s != nil {
				_, _ = s.stdinW.Write(f.Data)
			}
		case opStdinEOF:
			if s := wc.lookup(f.SID); s != nil {
				_ = s.stdinW.Close()
			}
		case opCancel:
			if s := wc.lookup(f.SID); s != nil {
				s.app.RequestExit(ExitCanceled)
			}
		case opWinOpened:
			if s := wc.lookup(f.SID); s != nil {
				s.ui.ack(f.Seq, f.Win, f.Str)
			}
		case opEvent:
			if s := wc.lookup(f.SID); s != nil {
				for _, we := range f.Evts {
					s.ui.deliver(we)
				}
			}
		case opPing:
			_ = wc.m.send(frame{Op: opPong})
		}
	}
	wc.shutdown()
}

// lookup resolves a session id.
func (wc *workerConn) lookup(sid uint64) *workerSession {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.sessions[sid]
}

// shutdown closes the connection and finishes every session on it.
func (wc *workerConn) shutdown() {
	wc.mu.Lock()
	if wc.down {
		wc.mu.Unlock()
		return
	}
	wc.down = true
	sessions := make([]*workerSession, 0, len(wc.sessions))
	apps := make([]*core.Application, 0, len(wc.sessions))
	for _, s := range wc.sessions {
		sessions = append(sessions, s)
		apps = append(apps, s.app)
	}
	wc.sessions = make(map[uint64]*workerSession)
	wc.mu.Unlock()
	wc.m.close()
	for i, s := range sessions {
		s.ui.close()
		_ = s.stdinW.Close()
		// A session still inside Exec has no app yet; open sees
		// wc.down once Exec returns and stops it there.
		if apps[i] != nil {
			apps[i].RequestExit(ExitWorkerLost)
		}
	}
}

// open launches a session application for an opOpen frame.
func (wc *workerConn) open(f frame) {
	req := f.Open
	if req == nil {
		_ = wc.m.send(frame{Op: opOpenErr, SID: f.SID, Code: ExitOpenFailed, Str: "malformed open"})
		return
	}
	u := wc.w.sandbox
	if req.Password != "" {
		au, err := wc.w.platform.Users().Authenticate(req.User, req.Password)
		if err != nil {
			_ = wc.m.send(frame{Op: opOpenErr, SID: f.SID, Code: ExitAuthFailed, Str: err.Error()})
			return
		}
		u = au
	}

	stdinR, stdinW := streams.NewPipe(streams.DefaultBufferSize)
	s := &workerSession{wc: wc, id: f.SID, stdinW: stdinW}
	s.ui = newRemoteUI(s, wc.w.inboxCap)
	var stdin io.Reader = stdinR
	if req.HasStdin {
		// Ask the dispatcher for input only when the application
		// actually reads it (see opStdinReq).
		stdin = &demandReader{r: stdinR, req: func() {
			_ = wc.m.send(frame{Op: opStdinReq, SID: f.SID})
		}}
	} else {
		_ = stdinW.Close()
	}

	// Register before Exec: the session application may open a proxy
	// window (an opWinOpen/opWinOpened round trip routed by SID) before
	// Exec even returns.
	wc.mu.Lock()
	if wc.down {
		wc.mu.Unlock()
		s.ui.close()
		_ = stdinW.Close()
		return
	}
	wc.sessions[f.SID] = s
	wc.mu.Unlock()

	app, err := wc.w.platform.Exec(core.ExecSpec{
		Program: req.Program,
		Args:    req.Args,
		User:    u,
		Dir:     u.Home,
		Stdin:   streams.NewReadStream("playground-in", streams.OwnerSystem, stdin),
		Stdout:  streams.NewWriteStream("playground-out", streams.OwnerSystem, &frameWriter{m: wc.m, op: opStdout, sid: f.SID}),
		Stderr:  streams.NewWriteStream("playground-err", streams.OwnerSystem, &frameWriter{m: wc.m, op: opStderr, sid: f.SID}),
		Resources: map[string]any{
			UIResourceKey: s.ui,
		},
	})
	if err != nil {
		wc.remove(f.SID)
		s.ui.close()
		_ = stdinW.Close()
		_ = wc.m.send(frame{Op: opOpenErr, SID: f.SID, Code: ExitOpenFailed, Str: err.Error()})
		return
	}
	wc.mu.Lock()
	s.app = app
	down := wc.down
	wc.mu.Unlock()
	if down {
		app.RequestExit(ExitWorkerLost)
	}
	go func() {
		code := app.WaitFor()
		wc.remove(f.SID)
		s.ui.close()
		_ = stdinW.Close()
		_ = wc.m.send(frame{Op: opExit, SID: f.SID, Code: code})
	}()
}

// remove detaches a finished session.
func (wc *workerConn) remove(sid uint64) {
	wc.mu.Lock()
	delete(wc.sessions, sid)
	wc.mu.Unlock()
}

// demandReader signals req exactly once, on the first Read.
type demandReader struct {
	r    io.Reader
	once sync.Once
	req  func()
}

func (d *demandReader) Read(p []byte) (int, error) {
	d.once.Do(d.req)
	return d.r.Read(p)
}

// workerSession is one session's worker-side state.
type workerSession struct {
	wc     *workerConn
	id     uint64
	app    *core.Application
	stdinW *streams.PipeWriter
	ui     *RemoteUI
}

// UIResourceKey is the application-resource slot the worker hands a
// session's UI proxy through; session code reaches it with UIOf.
const UIResourceKey = "playground.ui"

// ErrUIClosed is returned by remote UI operations once the session's
// connection or the UI itself is gone.
var ErrUIClosed = errors.New("playground: remote UI closed")

// ErrNoUI is returned by OpenWindow when the origin session has no
// owning application to mirror windows onto.
var ErrNoUI = errors.New("playground: session has no UI owner at the origin")

// UIOf returns the remote-UI proxy of a playground session
// application, if the calling code runs inside one.
func UIOf(ctx *core.Context) (*RemoteUI, bool) {
	v, ok := ctx.Resource(UIResourceKey)
	if !ok {
		return nil, false
	}
	ui, ok := v.(*RemoteUI)
	return ui, ok
}

// RemoteListener is a callback for origin input events proxied to the
// remote application. It runs on the session's event-proxy goroutine
// on the worker, with panics contained.
type RemoteListener func(e events.Event)

// winAck is an opWinOpened reply routed to its waiting OpenWindow.
type winAck struct {
	win    int64
	errStr string
}

// RemoteUI is the display proxy a remotely-executed application sees:
// windows it opens appear on the ORIGIN VM's display (owned by the
// origin application that submitted the session), origin input events
// on those windows flow back to its listeners, and events it posts
// surface on the origin display through the batched PostBatch path.
type RemoteUI struct {
	sess *workerSession
	done chan struct{}

	mu      sync.Mutex
	nextSeq uint64
	acks    map[uint64]chan winAck
	wins    map[int64]*RemoteWindow
	closed  bool

	inbox   *objspace.Mailbox
	dropped atomic.Int64
	panics  atomic.Int64
}

// newRemoteUI builds the proxy and starts its event-dispatch
// goroutine.
func newRemoteUI(s *workerSession, inboxCap int) *RemoteUI {
	ui := &RemoteUI{
		sess:  s,
		done:  make(chan struct{}),
		acks:  make(map[uint64]chan winAck),
		wins:  make(map[int64]*RemoteWindow),
		inbox: objspace.NewMailbox(inboxCap),
	}
	go ui.dispatchLoop()
	return ui
}

// OpenWindow asks the origin VM to open a mirror window and returns a
// handle bound to it. Blocks for the control round trip.
func (ui *RemoteUI) OpenWindow(title string) (*RemoteWindow, error) {
	ui.mu.Lock()
	if ui.closed {
		ui.mu.Unlock()
		return nil, ErrUIClosed
	}
	ui.nextSeq++
	seq := ui.nextSeq
	ch := make(chan winAck, 1)
	ui.acks[seq] = ch
	ui.mu.Unlock()

	if err := ui.sess.wc.m.send(frame{Op: opWinOpen, SID: ui.sess.id, Seq: seq, Str: title}); err != nil {
		ui.mu.Lock()
		delete(ui.acks, seq)
		ui.mu.Unlock()
		return nil, ErrUIClosed
	}
	select {
	case ack := <-ch:
		if ack.win == 0 {
			return nil, fmt.Errorf("playground: open window: %s", ack.errStr)
		}
		w := &RemoteWindow{ui: ui, id: ack.win, listeners: make(map[string][]RemoteListener)}
		ui.mu.Lock()
		ui.wins[ack.win] = w
		ui.mu.Unlock()
		return w, nil
	case <-ui.done:
		return nil, ErrUIClosed
	}
}

// ack routes an opWinOpened reply to its waiter.
func (ui *RemoteUI) ack(seq uint64, win int64, errStr string) {
	ui.mu.Lock()
	ch := ui.acks[seq]
	delete(ui.acks, seq)
	ui.mu.Unlock()
	if ch != nil {
		ch <- winAck{win: win, errStr: errStr}
	}
}

// deliver enqueues a proxied origin input event; a full inbox drops
// the event (counted) rather than stalling the connection demux.
func (ui *RemoteUI) deliver(we wireEvent) {
	if err := ui.inbox.TrySend(we); err != nil {
		ui.dropped.Add(1)
	}
}

// DroppedEvents reports inbound proxied events dropped on overflow.
func (ui *RemoteUI) DroppedEvents() int64 { return ui.dropped.Load() }

// dispatchLoop delivers inbound events to listeners, containing
// listener panics so a buggy callback cannot kill the proxy.
func (ui *RemoteUI) dispatchLoop() {
	buf := make([]any, 0, 64)
	for {
		batch, err := ui.inbox.ReceiveBatch(buf[:0])
		if err != nil {
			return
		}
		for _, v := range batch {
			we := v.(wireEvent)
			ui.mu.Lock()
			w := ui.wins[we.Win]
			ui.mu.Unlock()
			if w == nil {
				continue
			}
			e := we.toEvent()
			for _, l := range w.listenersFor(we.Component) {
				ui.dispatchOne(l, e)
			}
		}
	}
}

// dispatchOne invokes one listener with panic containment.
func (ui *RemoteUI) dispatchOne(l RemoteListener, e events.Event) {
	defer func() {
		if r := recover(); r != nil {
			ui.panics.Add(1)
		}
	}()
	l(e)
}

// close tears the proxy down: pending OpenWindow calls fail, the
// dispatch goroutine exits, and later operations error.
func (ui *RemoteUI) close() {
	ui.mu.Lock()
	if ui.closed {
		ui.mu.Unlock()
		return
	}
	ui.closed = true
	ui.mu.Unlock()
	close(ui.done)
	ui.inbox.Close()
}

// RemoteWindow is a remote application's handle on an origin mirror
// window.
type RemoteWindow struct {
	ui *RemoteUI
	id int64

	mu        sync.Mutex
	listeners map[string][]RemoteListener
}

// ID returns the origin display's window id.
func (w *RemoteWindow) ID() events.WindowID { return events.WindowID(w.id) }

// AddListener registers a callback for proxied origin input events on
// the named component. The first listener per component registers the
// origin-side forwarder (one opListen control frame).
func (w *RemoteWindow) AddListener(component string, l RemoteListener) error {
	w.mu.Lock()
	first := len(w.listeners[component]) == 0
	w.listeners[component] = append(w.listeners[component], l)
	w.mu.Unlock()
	if !first {
		return nil
	}
	return w.ui.sess.wc.m.send(frame{Op: opListen, SID: w.ui.sess.id, Win: w.id, Str: component})
}

// listenersFor snapshots the component's listeners.
func (w *RemoteWindow) listenersFor(component string) []RemoteListener {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.listeners[component]
}

// Post sends one event toward the origin display, targeted at this
// window.
func (w *RemoteWindow) Post(e events.Event) error {
	return w.PostBatch([]events.Event{e})
}

// PostBatch sends a run of events toward the origin display in one
// frame; the dispatcher re-posts them through events.PostBatch, so a
// burst pays one wire frame and one origin queue round-trip.
func (w *RemoteWindow) PostBatch(evts []events.Event) error {
	if len(evts) == 0 {
		return nil
	}
	wire := make([]wireEvent, len(evts))
	for i, e := range evts {
		wire[i] = fromEvent(w.id, e)
	}
	return w.ui.sess.wc.m.send(frame{Op: opPost, SID: w.ui.sess.id, Evts: wire})
}
