package playground

import (
	"encoding/gob"
	"io"
	"sync"

	"mpj/internal/events"
	"mpj/internal/netsim"
)

// DefaultPort is the conventional playground worker port.
const DefaultPort = 520

// op tags a multiplexed protocol frame. One netsim connection per
// worker carries every session's control channel and framed
// stdin/stdout/stderr streams, plus the bidirectional event proxy.
type op int

const (
	// opOpen (dispatcher → worker) opens a session: frame.SID names
	// the new session, frame.Open carries the request.
	opOpen op = iota + 1
	// opOpenErr (worker → dispatcher) refuses a session at open time:
	// frame.Str carries the reason, frame.Code the exit code.
	opOpenErr
	// opStdin / opStdinEOF (dispatcher → worker) carry the session's
	// standard input.
	opStdin
	opStdinEOF
	// opStdinReq (worker → dispatcher) reports the session
	// application's FIRST read of its standard input; only then does
	// the dispatcher start pumping opStdin frames. Demand-driven
	// pumping keeps the origin's stdin untouched for programs that
	// never read it — with a shared interactive stdin (the mvmsh
	// terminal), an eager pump would steal the shell's own input.
	opStdinReq
	// opStdout / opStderr (worker → dispatcher) carry the session
	// application's output.
	opStdout
	opStderr
	// opExit (worker → dispatcher) reports session completion:
	// frame.Code is the remote exit code.
	opExit
	// opCancel (dispatcher → worker) asks the worker to terminate the
	// session; the worker still answers with opExit.
	opCancel
	// opWinOpen (worker → dispatcher) asks the origin VM to open a
	// mirror window: frame.Seq correlates the opWinOpened reply,
	// frame.Str is the title.
	opWinOpen
	// opWinOpened (dispatcher → worker) answers opWinOpen: frame.Win
	// is the origin window id (0 on failure, frame.Str the reason).
	opWinOpened
	// opListen (worker → dispatcher) registers the remote application
	// as a listener on component frame.Str of origin window frame.Win;
	// matching origin input events start flowing back as opEvent.
	opListen
	// opEvent (dispatcher → worker) forwards origin input events to
	// the remote application's listeners.
	opEvent
	// opPost (worker → dispatcher) carries a batch of events the
	// remote application emits toward the origin display; the
	// dispatcher re-posts them through events.PostBatch.
	opPost
	// opPing / opPong are the liveness heartbeat.
	opPing
	opPong
)

// openReq is the opOpen payload.
type openReq struct {
	// Program names the program to run on the worker platform.
	Program string
	// Args are its arguments.
	Args []string
	// User and Password authenticate a worker-side account when
	// Password is non-empty. Otherwise the session runs as the
	// worker's sacrificial sandbox account — the playground model:
	// untrusted code executes under a throwaway identity, whichever
	// origin user asked for it.
	User     string
	Password string
	// HasStdin tells the worker to expect opStdin frames (an
	// opStdinEOF arrives either way).
	HasStdin bool
}

// wireEvent is an input event crossing the proxy in either direction.
// Win is always the ORIGIN window id: mirror windows exist only on the
// origin display, and the worker keys its remote window handles by the
// origin id the opWinOpened reply carried.
type wireEvent struct {
	Win       int64
	Component string
	Kind      int
	X, Y      int
	Key       rune
}

// toEvent converts a wire event into a display event.
func (we wireEvent) toEvent() events.Event {
	return events.Event{
		Window:    events.WindowID(we.Win),
		Component: we.Component,
		Kind:      events.Kind(we.Kind),
		X:         we.X,
		Y:         we.Y,
		Key:       we.Key,
	}
}

// fromEvent converts a display event for the wire, stamping the given
// origin window id.
func fromEvent(win int64, e events.Event) wireEvent {
	return wireEvent{
		Win:       win,
		Component: e.Component,
		Kind:      int(e.Kind),
		X:         e.X,
		Y:         e.Y,
		Key:       e.Key,
	}
}

// frame is one multiplexed protocol message (gob-encoded).
type frame struct {
	Op   op
	SID  uint64
	Seq  uint64
	Win  int64
	Str  string
	Code int
	Data []byte
	Open *openReq
	Evts []wireEvent
}

// mux wraps one connection with a locked encoder (many sessions and
// the heartbeat interleave frames) and a single-reader decoder.
type mux struct {
	conn *netsim.Conn
	dec  *gob.Decoder

	mu  sync.Mutex
	enc *gob.Encoder
}

func newMux(conn *netsim.Conn) *mux {
	return &mux{conn: conn, dec: gob.NewDecoder(conn), enc: gob.NewEncoder(conn)}
}

// send encodes one frame under the write lock.
func (m *mux) send(f frame) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.enc.Encode(f)
}

// recv decodes the next frame; single-goroutine use only.
func (m *mux) recv() (frame, error) {
	var f frame
	err := m.dec.Decode(&f)
	return f, err
}

// close tears the connection down; blocked recv returns an error.
func (m *mux) close() { _ = m.conn.Close() }

// frameWriter adapts the mux into an io.Writer emitting stream frames
// of one kind for one session.
type frameWriter struct {
	m   *mux
	op  op
	sid uint64
}

var _ io.Writer = (*frameWriter)(nil)

func (w *frameWriter) Write(p []byte) (int, error) {
	data := make([]byte, len(p))
	copy(data, p)
	if err := w.m.send(frame{Op: w.op, SID: w.sid, Data: data}); err != nil {
		return 0, err
	}
	return len(p), nil
}
