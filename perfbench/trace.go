package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// epoch anchors nanotime: monotonic nanoseconds since process start,
// comparable across goroutines (the guard application stamps its
// reads with it too).
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// Span ids: each names a call the benchmark makes into one layer's
// public API. The metric for id i is spanNames[i] + "_us", the median
// self time of its spans.
const (
	spLaunch = iota
	spRunExit
	spSubmit
	spWait
	spWrite
	spRead
	spRemove
	spPost
	spDeliver
	spAtomically
	spReadAllowed
	spReadRefused
	spHandoff
	numSpans
)

var spanNames = [numSpans]string{
	"core.launch", "core.run_exit", "playground.submit", "playground.wait",
	"vfs.write", "vfs.read", "vfs.remove", "events.post", "events.deliver",
	"objspace.atomically", "core.read_allowed", "core.read_refused", "guard.handoff",
}

// span is one recorded interval. Spans of one operation share Op; a
// layer span's Parent is the operation's kind, whose own span has no
// parent.
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// keepSpans caps the spans each client keeps for the trace file; the
// per-span-id durations behind the metrics are always kept in full.
const keepSpans = 1 << 13

// tracer is one client's in-memory trace.
type tracer struct {
	kind string // the current operation's kind, parent of layer spans
	durs [numSpans]sampleBuf
	kept []span
}

func newTracer() *tracer { return &tracer{kept: make([]span, 0, keepSpans)} }

func (t *tracer) keep(s span) {
	if len(t.kept) < keepSpans {
		t.kept = append(t.kept, s)
	}
}

// client is one closed-loop user terminal: it issues its next
// operation only after the previous one returned.
type client struct {
	id    int
	gen   *gen
	oprng *rand.Rand // handed to reused load-scenario ops
	tr    *tracer    // trace while in a traced round, else nil
	trace *tracer    // this client's trace, kept across rounds
	op    uint64     // current operation id
	files int        // file-name counter of the file op
	out   bytes.Buffer
	guard chan guardReply

	// Per phase: samples packs kind<<56 | latency ns.
	samples           sampleBuf
	attempted, failed int64
	wrong             int64
	firstErr          error
	end               int64
}

// failedLatency is the latency recorded for a failed op: it counts as
// missing every latency limit.
const failedLatency = 1<<56 - 1

// mark reads the clock only when tracing, so untraced ops pay nothing
// for their inner span boundaries.
func (c *client) mark() int64 {
	if c.tr == nil {
		return 0
	}
	return nanotime()
}

func (c *client) span(id int, start, end int64) {
	if c.tr == nil {
		return
	}
	c.tr.durs[id].add(uint64(end - start))
	c.tr.keep(span{Op: c.op, Name: spanNames[id], Parent: c.tr.kind, Start: start, End: end})
}

// guardSpans records a guard request: the application-side ReadFile
// as its own span, and the hand-off to and from the guard application
// as the request's time outside it.
func (c *client) guardSpans(read int, start, end int64, rep guardReply) {
	if c.tr == nil {
		return
	}
	c.span(read, rep.start, rep.end)
	c.tr.durs[spHandoff].add(uint64(end - start - (rep.end - rep.start)))
	c.tr.keep(span{Op: c.op, Name: spanNames[spHandoff], Parent: c.tr.kind, Start: start, End: end})
}

// record accounts one finished operation of kind k.
func (c *client) record(k int, start, end int64, err error) {
	c.attempted++
	lat := end - start
	if err != nil {
		c.failed++
		if errors.Is(err, errWrong) {
			c.wrong++
		}
		if c.firstErr == nil {
			c.firstErr = err
		}
		lat = failedLatency
	}
	c.samples.add(uint64(k)<<56 | uint64(min(lat, failedLatency)))
}

// writeTrace writes the kept spans and each traced round's CPU
// profile under cfg.out/trace.
func writeTrace(cfg config, clients []*client, profiles [][]byte) error {
	dir := filepath.Join(cfg.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.workload.Name, cfg.seed))
	for i, p := range profiles {
		if err := os.WriteFile(fmt.Sprintf("%s-%d.cpu.pprof", base, i+1), p, 0o644); err != nil {
			return err
		}
	}
	return writeSpans(base+".spans.jsonl", clients)
}

// writeSpans writes every kept span, one JSON object a line.
func writeSpans(path string, clients []*client) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, c := range clients {
		if c.trace == nil {
			continue
		}
		for _, s := range c.trace.kept {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMetrics turns the clients' span durations into per-layer
// metrics: the median, in microseconds, with its sample count. An id
// the workload never exercises reads 0 with n=0.
func spanMetrics(clients []*client, scratch *sampleBuf, into map[string]value) {
	for id := 0; id < numSpans; id++ {
		scratch.reset()
		for _, c := range clients {
			if c.trace != nil {
				scratch.addAll(c.trace.durs[id].s)
			}
		}
		slices.Sort(scratch.s)
		into[spanNames[id]+"_us"] = value{Value: float64(quantile(scratch.s, 0.5)) / 1e3, Unit: "us", N: len(scratch.s)}
	}
}
