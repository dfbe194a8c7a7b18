// Package streams implements the stream substrate of the platform:
// buffered in-VM pipes (the cheap same-address-space IPC that Section 2
// of the paper argues for), and ownership-tracked standard streams with
// the Section 5.1 rule that "applications may only close streams that
// they opened" — streams passed to them, like inherited stdin/stdout,
// must not be closed by the receiver.
package streams

import (
	"errors"
	"io"
	"sync"
)

// Pipe errors.
var (
	// ErrClosedPipe is returned when writing to a pipe whose read end
	// is closed, or using an end that is itself closed.
	ErrClosedPipe = errors.New("streams: read/write on closed pipe")
)

// pipe is a bounded ring buffer shared by a PipeReader/PipeWriter pair.
// Capacity is a ceiling, not an up-front allocation: the ring is
// allocated by the first write that needs room and grows only when a
// write does not fit (see grow). A pipe that never carries data (a
// netsim connection nobody writes to) costs no ring at all, and one
// that carries a line of text (`echo data | cat`) costs a few hundred
// bytes instead of the whole capacity.
type pipe struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond

	capacity int
	buf      []byte // nil until a write needs room; len(buf) <= capacity
	r, w     int    // read / write cursors
	n        int    // bytes buffered
	wErr     bool   // writer closed
	rErr     bool   // reader closed
}

// minRing is the smallest ring a pipe allocates (capped at its capacity).
const minRing = 512

// grow replaces the ring with one of at least need bytes, capped at
// capacity. A ring with nothing unread is sized to the write: the
// smallest power-of-two multiple of minRing (or of twice the old
// ring) that fits it. A ring that still holds unread bytes means the producer is running ahead of
// its consumer, the bulk-stream shape, so it goes straight to
// capacity: stepping through every doubling would make a bulk stream
// pay for a chain of copies and handoffs on small rings. The buffered
// bytes move to the front of the new ring in read order, unwrapped.
// Caller holds mu and has checked len(buf) < capacity.
func (p *pipe) grow(need int) {
	size := max(2*len(p.buf), minRing)
	if p.n > 0 {
		size = p.capacity
	}
	for size < need {
		size *= 2
	}
	size = min(size, p.capacity)
	buf := make([]byte, size)
	k := copy(buf, p.buf[p.r:min(p.r+p.n, len(p.buf))])
	copy(buf[k:p.n], p.buf)
	p.buf, p.r, p.w = buf, 0, p.n
}

// PipeReader is the read end of an in-VM pipe.
type PipeReader struct{ p *pipe }

// PipeWriter is the write end of an in-VM pipe.
type PipeWriter struct{ p *pipe }

var (
	_ io.ReadCloser  = (*PipeReader)(nil)
	_ io.WriteCloser = (*PipeWriter)(nil)
)

// DefaultBufferSize is the pipe capacity used when NewPipe is given a
// non-positive one, and the capacity of shell-pipeline pipes. It is a
// ceiling: a pipe's ring grows towards it only as the data in flight
// requires. 64 KiB matches the Linux pipe default; a bulk stream that
// can grow its ring that far lets a producer like `cat` run ahead of
// its consumer, whereas with a tiny ceiling the consumer is woken once
// per few bytes and pipeline throughput is dominated by cond-var
// handoffs rather than copying (see BenchmarkPipeThroughput).
const DefaultBufferSize = 64 * 1024

// NewPipe creates a buffered pipe with the given capacity
// (DefaultBufferSize if capacity is not positive): writers block once
// capacity bytes are buffered, while the ring holding them grows on
// demand (see pipe). Unlike io.Pipe,
// writes complete as soon as they fit in the buffer, which is the
// semantics Unix pipes provide and what the shell and the IPC
// benchmarks need.
func NewPipe(capacity int) (*PipeReader, *PipeWriter) {
	if capacity < 1 {
		capacity = DefaultBufferSize
	}
	p := &pipe{capacity: capacity}
	p.notEmpty = sync.NewCond(&p.mu)
	p.notFull = sync.NewCond(&p.mu)
	return &PipeReader{p: p}, &PipeWriter{p: p}
}

// Read implements io.Reader. It blocks until data is available, the
// writer closes (io.EOF after the buffer drains), or the reader is
// closed.
func (r *PipeReader) Read(b []byte) (int, error) {
	p := r.p
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n == 0 {
		if p.rErr {
			return 0, ErrClosedPipe
		}
		if p.wErr {
			return 0, io.EOF
		}
		p.notEmpty.Wait()
	}
	if p.rErr {
		return 0, ErrClosedPipe
	}
	total := 0
	for total < len(b) && p.n > 0 {
		chunk := len(p.buf) - p.r
		if chunk > p.n {
			chunk = p.n
		}
		if chunk > len(b)-total {
			chunk = len(b) - total
		}
		copy(b[total:], p.buf[p.r:p.r+chunk])
		p.r = (p.r + chunk) % len(p.buf)
		p.n -= chunk
		total += chunk
	}
	if p.n == 0 {
		// Empty: rewind so the next write starts at the front and a
		// later grow has nothing to unwrap.
		p.r, p.w = 0, 0
	}
	p.notFull.Broadcast()
	return total, nil
}

// Close closes the read end; subsequent writes fail with
// ErrClosedPipe.
func (r *PipeReader) Close() error {
	p := r.p
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rErr = true
	p.notEmpty.Broadcast()
	p.notFull.Broadcast()
	return nil
}

// Write implements io.Writer. It grows the ring when the bytes do not
// fit and it is below capacity, blocks while capacity bytes are
// buffered, and returns ErrClosedPipe if either end has been closed.
func (w *PipeWriter) Write(b []byte) (int, error) {
	p := w.p
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for total < len(b) {
		for p.n == p.capacity && !p.rErr && !p.wErr {
			p.notFull.Wait()
		}
		if p.rErr || p.wErr {
			return total, ErrClosedPipe
		}
		if need := p.n + len(b) - total; need > len(p.buf) && len(p.buf) < p.capacity {
			p.grow(need)
		}
		for total < len(b) && p.n < len(p.buf) {
			chunk := len(p.buf) - p.w
			if free := len(p.buf) - p.n; chunk > free {
				chunk = free
			}
			if chunk > len(b)-total {
				chunk = len(b) - total
			}
			copy(p.buf[p.w:p.w+chunk], b[total:total+chunk])
			p.w = (p.w + chunk) % len(p.buf)
			p.n += chunk
			total += chunk
		}
		p.notEmpty.Broadcast()
	}
	return total, nil
}

// Close closes the write end; the reader sees io.EOF after draining
// buffered data.
func (w *PipeWriter) Close() error {
	p := w.p
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wErr = true
	p.notEmpty.Broadcast()
	p.notFull.Broadcast()
	return nil
}
