package streams

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

// ringLen reports the pipe's current ring size and buffered bytes.
func ringLen(r *PipeReader) (size, buffered int) {
	r.p.mu.Lock()
	defer r.p.mu.Unlock()
	return len(r.p.buf), r.p.n
}

func TestPipeNeverWrittenAllocatesNoRing(t *testing.T) {
	r, w := NewPipe(DefaultBufferSize)
	if _, err := w.Write(nil); err != nil {
		t.Fatal(err)
	}
	_ = w.Close()
	if _, err := r.Read(make([]byte, 8)); err != io.EOF {
		t.Fatalf("read err = %v, want EOF", err)
	}
	if r.p.buf != nil {
		t.Fatalf("unwritten pipe allocated a %d-byte ring", len(r.p.buf))
	}

	// A short message costs the minimum ring, not the capacity.
	r, w = NewPipe(DefaultBufferSize)
	if _, err := w.Write([]byte("data\n")); err != nil {
		t.Fatal(err)
	}
	if size, _ := ringLen(r); size != minRing {
		t.Fatalf("ring after a 5-byte write = %d bytes, want %d", size, minRing)
	}
}

func TestPipeGrowthPreservesOrderWhileWrapped(t *testing.T) {
	const capacity = 3000
	r, w := NewPipe(capacity)
	var want bytes.Buffer
	seq := byte(0)
	write := func(n int) {
		t.Helper()
		b := make([]byte, n)
		for i := range b {
			b[i] = seq
			seq++
		}
		want.Write(b)
		if _, err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	read := func(n int) {
		t.Helper()
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			t.Fatal(err)
		}
		got.Write(b)
	}

	write(400) // ring: minRing bytes, 400 buffered
	read(300)  // 100 buffered at [300,400)
	write(300) // wraps: [300,512) ++ [0,188)
	r.p.mu.Lock()
	wrapped, size := r.p.w < r.p.r, len(r.p.buf)
	r.p.mu.Unlock()
	if !wrapped || size != minRing {
		t.Fatalf("setup: wrapped=%t size=%d, want a wrapped %d-byte ring", wrapped, size, minRing)
	}
	write(1000) // 1400 buffered: a backlog, so it grows to capacity while wrapped
	if size, n := ringLen(r); size != capacity || n != 1400 {
		t.Fatalf("after growth: size=%d buffered=%d, want %d and 1400", size, n, capacity)
	}
	_ = w.Close()
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	got.Write(rest)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("byte stream reordered across growth (%d vs %d bytes)", got.Len(), want.Len())
	}
}

func TestPipeCapacityIsHardCeiling(t *testing.T) {
	const capacity = 1000 // not a power of two: growth must stop exactly here
	r, w := NewPipe(capacity)
	payload := bytes.Repeat([]byte("0123456789"), 300)
	done := make(chan error, 1)
	go func() {
		_, err := w.Write(payload)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, n := ringLen(r); n == capacity {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never filled the pipe")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("write of %d bytes returned (%v) with capacity %d", len(payload), err, capacity)
	case <-time.After(20 * time.Millisecond):
	}
	if size, _ := ringLen(r); size != capacity {
		t.Fatalf("ring grew to %d bytes, past capacity %d", size, capacity)
	}
	// A read makes room and the writer resumes, never past capacity.
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(r, got[:100]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(r, got[100:]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
	if size, _ := ringLen(r); size != capacity {
		t.Fatalf("ring is %d bytes, want capacity %d", size, capacity)
	}
}

func TestPipeCloseSemanticsOnGrownRing(t *testing.T) {
	// Writer close: buffered bytes drain, then EOF; later writes fail.
	r, w := NewPipe(DefaultBufferSize)
	payload := bytes.Repeat([]byte("x"), 3000)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	_ = w.Close()
	if _, err := w.Write([]byte("y")); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("write after writer close = %v", err)
	}
	data, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("drain after writer close: %d bytes, %v", len(data), err)
	}

	// Reader close: buffered bytes are discarded, reads and writes fail,
	// and a writer blocked at capacity is released.
	r, w = NewPipe(2048)
	if _, err := w.Write(make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := w.Write([]byte("z"))
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = r.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosedPipe) {
			t.Fatalf("blocked write after reader close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer still blocked after reader close")
	}
	if _, err := r.Read(make([]byte, 1)); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("read after reader close = %v", err)
	}
}

// TestPipeBulkTransferAllocBound streams 1 MiB in 4 KiB writes (the
// BenchmarkPipeThroughput shape) and bounds what the growing ring
// allocates over the transfer to twice the capacity.
func TestPipeBulkTransferAllocBound(t *testing.T) {
	const total, chunk = 1 << 20, 4096
	msg := make([]byte, chunk)
	rbuf := make([]byte, 64*1024)
	transfer := func() {
		r, w := NewPipe(DefaultBufferSize)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, err := r.Read(rbuf); err != nil {
					return
				}
			}
		}()
		for sent := 0; sent < total; sent += chunk {
			if _, err := w.Write(msg); err != nil {
				t.Error(err)
				break
			}
		}
		_ = w.Close()
		<-done
	}
	transfer() // warm up
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		transfer()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	if perOp > 2*DefaultBufferSize {
		t.Fatalf("bulk transfer allocated %d B/op, want <= %d (2x capacity)", perOp, 2*DefaultBufferSize)
	}
	t.Logf("bulk transfer: %d B/op", perOp)
}
