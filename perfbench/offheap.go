package main

import (
	"syscall"
	"unsafe"
)

// sampleBuf is a growable []uint64 kept outside the Go heap. Every op
// adds a sample, and a few million live samples on the heap would both
// count as the platform's allocation and raise the collector's heap
// target, making the platform's own garbage collection look cheaper
// than it is. Memory mapped here is invisible to both.
type sampleBuf struct {
	s      []uint64
	mapped bool // s is an mmap'ed region (else a heap fallback)
}

// minSamples is the first mapping's size, in samples.
const minSamples = 1 << 16

func (b *sampleBuf) reset() { b.s = b.s[:0] }

func (b *sampleBuf) add(v uint64) {
	if len(b.s) == cap(b.s) {
		b.grow(2 * cap(b.s))
	}
	b.s = append(b.s, v)
}

func (b *sampleBuf) addAll(vs []uint64) {
	if need := len(b.s) + len(vs); need > cap(b.s) {
		b.grow(max(need, 2*cap(b.s)))
	}
	b.s = append(b.s, vs...)
}

// reserve makes room for n samples in all, so that a measured phase
// never remaps.
func (b *sampleBuf) reserve(n int) {
	if n > cap(b.s) {
		b.grow(n)
	}
}

func (b *sampleBuf) grow(n int) {
	n = max(n, minSamples)
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	var s []uint64
	mapped := err == nil
	if mapped {
		s = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n)[:len(b.s)]
	} else {
		s = make([]uint64, len(b.s), n) // no mmap: correct, only less faithful
	}
	copy(s, b.s)
	b.free()
	b.s, b.mapped = s, mapped
}

// free unmaps the buffer; it is empty afterwards.
func (b *sampleBuf) free() {
	if b.mapped && cap(b.s) > 0 {
		_ = syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b.s))), cap(b.s)*8))
	}
	b.s, b.mapped = nil, false
}
