package coreutils

import (
	"bytes"
	"strings"
	"testing"

	"mpj/internal/streams"
)

// TestCopyStreamReusesItsBuffer: cat's stdin-to-stdout path between
// two streams (which offer neither WriterTo nor ReaderFrom) allocates
// nothing per call once the pool is warm, where io.Copy allocated a
// 32 KiB buffer every time.
func TestCopyStreamReusesItsBuffer(t *testing.T) {
	src := bytes.NewReader(nil)
	var sink bytes.Buffer
	in := streams.NewReadStream("in", streams.OwnerSystem, src)
	out := streams.NewWriteStream("out", streams.OwnerSystem, &sink)
	msg := []byte("data\n")
	sink.Grow(len(msg))
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(msg)
		sink.Reset()
		if err := copyStream(out, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || sink.String() != "data\n" {
		t.Fatalf("copyStream: %v allocs/op, copied %q", allocs, sink.String())
	}
}

// TestCopyStreamMultiChunk: a stream longer than the copy buffer
// arrives whole and in order.
func TestCopyStreamMultiChunk(t *testing.T) {
	payload := strings.Repeat("0123456789abcdef", 3*copyBufSize/16+7)
	var sink bytes.Buffer
	in := streams.NewReadStream("in", streams.OwnerSystem, strings.NewReader(payload))
	out := streams.NewWriteStream("out", streams.OwnerSystem, &sink)
	if err := copyStream(out, in); err != nil {
		t.Fatal(err)
	}
	if sink.String() != payload {
		t.Fatalf("copied %d bytes, want %d in order", sink.Len(), len(payload))
	}
}
