package streams

import (
	"fmt"
	"io"
	"testing"
)

// BenchmarkPipeThroughput streams 1 MiB through a pipe with a
// concurrent reader, across capacities. It demonstrates why
// DefaultBufferSize is 64 KiB: below the chunk size, every write
// blocks on the reader and throughput is set by cond-var handoffs;
// with a 64 KiB ceiling the producer streams ahead of the consumer
// the way a shell pipeline (`cat f | grep x | wc`) needs. Capacity is
// a ceiling, not an allocation, so small messages never pay for it;
// B/op here is the first write's ring plus the full-capacity ring that
// the backlog grows it to.
func BenchmarkPipeThroughput(b *testing.B) {
	const total = 1 << 20
	const chunk = 4096
	for _, capacity := range []int{512, 8 * 1024, DefaultBufferSize} {
		b.Run(fmt.Sprintf("buf=%d", capacity), func(b *testing.B) {
			msg := make([]byte, chunk)
			b.SetBytes(total)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, w := NewPipe(capacity)
				done := make(chan struct{})
				go func() {
					defer close(done)
					buf := make([]byte, 64*1024)
					for {
						if _, err := r.Read(buf); err != nil {
							return
						}
					}
				}()
				for sent := 0; sent < total; sent += chunk {
					if _, err := w.Write(msg); err != nil {
						b.Fatal(err)
					}
				}
				_ = w.Close()
				<-done
			}
		})
	}
}

// BenchmarkPipePingPong measures one-byte round-trip latency (the E6
// context-switch shape) to confirm the larger default buffer does not
// tax the latency path: a round trip touches one byte regardless of
// capacity.
func BenchmarkPipePingPong(b *testing.B) {
	toR, toW := NewPipe(0)
	fromR, fromW := NewPipe(0)
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := io.ReadFull(toR, buf); err != nil {
				return
			}
			if _, err := fromW.Write(buf); err != nil {
				return
			}
		}
	}()
	buf := []byte{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := toW.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(fromR, buf); err != nil {
			b.Fatal(err)
		}
	}
	_ = toW.Close()
	_ = fromR.Close()
}
