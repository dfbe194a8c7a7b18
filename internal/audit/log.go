package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures a Log. The zero value of every field selects a
// sensible default.
type Config struct {
	// Store persists the hash-chained segments. Defaults to an
	// in-memory MemStore.
	Store SegmentStore
	// Shards is the number of emission ring buffers (rounded up to a
	// power of two). Defaults to 8.
	Shards int
	// ShardCap is each ring's capacity in records. Defaults to 1024.
	ShardCap int
	// SegmentRecords is how many records a segment holds before the
	// drainer rotates to the next one. Defaults to 512.
	SegmentRecords int
	// FlushInterval bounds how long an emitted record can sit in a
	// shard before the drainer sweeps it. Defaults to 5ms.
	FlushInterval time.Duration
	// MerkleBatch caps how many records one Merkle batch commit
	// covers (one root, one chain link). Defaults to 256. A batch
	// never spans a segment boundary, so the effective cap is
	// min(MerkleBatch, SegmentRecords).
	MerkleBatch int
	// MerkleWait bounds how long the drainer holds a partial batch
	// open waiting for more records before committing it undersized.
	// Defaults to FlushInterval. Sync always commits immediately.
	MerkleWait time.Duration
	// ChainPerRecord selects the pre-Merkle consumption side: every
	// record is individually hash-chained and persisted in segment
	// format v1. It exists as the measured baseline for the Merkle
	// drainer and as the writer for v1-compatibility tests; new
	// deployments should leave it false.
	ChainPerRecord bool
	// Mask is the initial category mask; 0 selects DefaultMask.
	Mask Category
	// Clock supplies record timestamps (for deterministic tests).
	// Defaults to time.Now.
	Clock func() time.Time
}

// Admission is the audit-backpressure hook: when installed (see
// SetAdmission), every enabled Emit carrying a user first asks
// AdmitRecord; a false return drops the event at the door (counted as
// emitted + dropped, so conservation holds) instead of letting one
// user's storm wash everyone else's records out of the rings. The
// drainer calls ReleaseRecords as records leave the pending set —
// either committed to a segment or displaced by ring overflow — so the
// admission counter tracks exactly the user's emitted-but-undrained
// records. Implementations must be safe for concurrent use and never
// block: both hooks sit on hot paths.
type Admission interface {
	AdmitRecord(user string) bool
	ReleaseRecords(user string, n int)
}

// shard is one bounded emission ring. Emitters hash to a shard by
// thread ID, so unrelated threads rarely contend on the same mutex.
type shard struct {
	mu    sync.Mutex
	buf   []Record
	start int // index of the oldest record
	n     int // live records
	// pad keeps neighbouring shards off one cache line.
	_ [40]byte
}

// Log is the VM-wide audit log. All methods are safe for concurrent
// use, and Emit/Enabled tolerate a nil receiver (they report disabled),
// so call sites need no nil guards.
type Log struct {
	mask atomic.Uint32
	seq  atomic.Uint64

	emitted [numCategories]atomic.Uint64
	dropped [numCategories]atomic.Uint64
	// degraded counts records rejected by the Admission hook
	// (backpressure); they are also counted in dropped.
	degraded atomic.Uint64

	admission atomic.Value // Admission, when installed

	shards    []shard
	shardMask uint64

	store          SegmentStore
	segmentRecords int
	merkleBatch    int
	merkleWait     time.Duration
	legacy         bool // ChainPerRecord: v1 per-record chaining
	clock          func() time.Time
	flushInterval  time.Duration
	wake           chan struct{}

	// drainMu serializes the consumption side: the drainer loop,
	// Sync, Close, Verify, Query and Prove. Everything below it is
	// guarded by drainMu.
	drainMu  sync.Mutex
	prev     [32]byte // chain head: last record hash (v1) or last batch link (v2)
	lastRoot [32]byte // last committed batch's Merkle root
	batches  int      // committed batches (root-chain length)
	seg      int      // current segment index
	segCount int      // records already in the current segment
	segOff   int      // bytes already flushed to the current segment
	segLines int      // lines already written to the current segment
	storeErr error    // first storage failure, if any

	// hold carries swept-but-uncommitted records between drains while
	// a partial batch waits (bounded by merkleWait) for company.
	hold      []Record
	holdSince time.Time

	// segIdx caches per-segment batch indexes: appended by the
	// drainer as it commits, or rebuilt by one scan for segments this
	// instance didn't write.
	segIdx map[string]*segIndex

	// Reused drain scratch (all guarded by drainMu).
	sweep    []Record // swept ring records, one run per shard
	runs     []run
	pending  []byte
	leafBuf  []byte
	leafOffs []int // cumulative end offsets of encoded leaf lines
	level0   [][32]byte
	hashBuf  []byte
	bodyMemo bodyEncoder
	relUsers map[string]int

	chained atomic.Uint64 // records appended to the chain

	subMu      sync.Mutex
	subs       map[int]*Subscription
	nextSub    int
	subSnap    []*Subscription
	subDropped atomic.Uint64
}

// segIndex is the per-segment batch index. v1 segments have no
// batches; their records are walked line by line.
type segIndex struct {
	v1      bool
	batches []batchMeta
}

// New creates a Log. The caller owns the drainer: either spawn Run on
// a (daemon) goroutine, or rely on explicit Sync calls. If the store
// already holds segments (a resumed trail), numbering continues after
// the highest existing segment and the root chain resumes from the
// last persisted batch header.
func New(cfg Config) *Log {
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	// Round the shard count up to a power of two so the shard pick is
	// a single AND.
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	if cfg.ShardCap <= 0 {
		cfg.ShardCap = 1024
	}
	if cfg.SegmentRecords <= 0 {
		cfg.SegmentRecords = 512
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 5 * time.Millisecond
	}
	if cfg.MerkleBatch <= 0 {
		cfg.MerkleBatch = 256
	}
	if cfg.MerkleWait <= 0 {
		cfg.MerkleWait = cfg.FlushInterval
	}
	if cfg.Mask == 0 {
		cfg.Mask = DefaultMask
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	l := &Log{
		shards:         make([]shard, n),
		shardMask:      uint64(n - 1),
		store:          cfg.Store,
		segmentRecords: cfg.SegmentRecords,
		merkleBatch:    cfg.MerkleBatch,
		merkleWait:     cfg.MerkleWait,
		legacy:         cfg.ChainPerRecord,
		clock:          cfg.Clock,
		flushInterval:  cfg.FlushInterval,
		wake:           make(chan struct{}, 1),
		subs:           make(map[int]*Subscription),
		segIdx:         make(map[string]*segIndex),
	}
	for i := range l.shards {
		l.shards[i].buf = make([]Record, cfg.ShardCap)
	}
	l.mask.Store(uint32(cfg.Mask))
	l.resume()
	return l
}

// resume continues an existing trail: segment numbering starts past
// the highest stored segment (the formats must never interleave within
// one segment) and, when the newest segment is v2, the root chain and
// sequence counter pick up from its last batch header. Best effort: a
// fresh or unreadable store just starts at segment 0.
func (l *Log) resume() {
	names, err := l.store.List()
	if err != nil || len(names) == 0 {
		return
	}
	maxIdx := -1
	for _, name := range names {
		if idx, ok := parseSegmentName(name); ok && idx > maxIdx {
			maxIdx = idx
		}
	}
	if maxIdx < 0 {
		return
	}
	l.seg = maxIdx + 1
	data, err := l.store.Read(segmentName(maxIdx))
	if err != nil || len(data) == 0 {
		return
	}
	if isV2Segment(data) {
		idx, err := buildSegIndex(data)
		if err != nil || len(idx.batches) == 0 {
			return
		}
		m := idx.batches[len(idx.batches)-1]
		l.prev = m.chain
		l.lastRoot = m.root
		l.batches = m.idx + 1
		l.seq.Store(m.last)
		return
	}
	// v1 tail: resume the sequence counter past the last record. The
	// v2 root chain starts fresh — it is independent of the v1
	// per-record chain, and Verify walks each with its own genesis.
	off := 0
	var lastLine []byte
	for off < len(data) {
		line, next := nextLine(data, off)
		if len(line) > 0 {
			lastLine = line
		}
		off = next
	}
	if rec, err := parseRecordLine(lastLine, true); err == nil {
		l.seq.Store(rec.Seq)
		if l.legacy {
			hexDecodeInto(l.prev[:], rec.Hash)
		}
	}
}

// ----- emission side -----

// Enabled reports whether any of the given categories is enabled.
// Safe on a nil Log. Call sites use it to skip building event strings
// entirely when nobody is listening.
func (l *Log) Enabled(c Category) bool {
	return l != nil && Category(l.mask.Load())&c != 0
}

// Emit records an event. When the event's category is disabled (or the
// log is nil) the cost is one atomic load; it never blocks and never
// allocates on that path. When enabled, the event is stamped and pushed
// into the emitting thread's ring; a full ring drops its oldest record
// and bumps the dropped counter of that record's category — the
// emitter is never the one to stall.
func (l *Log) Emit(ev Event) {
	if l == nil || Category(l.mask.Load())&ev.Cat == 0 {
		return
	}
	l.emit(ev)
}

// emit is the enabled-path tail of Emit, kept out of line so Emit
// itself stays inlinable at every instrumentation site.
func (l *Log) emit(ev Event) {
	l.emitted[ev.Cat.index()].Add(1)
	if ev.User != "" {
		if v := l.admission.Load(); v != nil {
			if !v.(Admission).AdmitRecord(ev.User) {
				// Backpressure: the user is over their
				// emitted-but-undrained cap. Counted as dropped so
				// Records + Dropped == Emitted still holds.
				l.dropped[ev.Cat.index()].Add(1)
				l.degraded.Add(1)
				return
			}
		}
	}
	now := l.clock().UnixNano()
	sh := &l.shards[uint64(ev.Thread)&l.shardMask]
	sh.mu.Lock()
	var slot *Record
	if sh.n == len(sh.buf) {
		// Overflow: the oldest record's slot becomes the tail.
		slot = &sh.buf[sh.start]
		l.dropped[slot.Cat.index()].Add(1)
		if slot.User != "" {
			l.releaseOne(slot.User)
		}
		sh.start = (sh.start + 1) % len(sh.buf)
	} else {
		slot = &sh.buf[(sh.start+sh.n)%len(sh.buf)]
		sh.n++
	}
	// The sequence number is taken under the shard lock, so each ring
	// holds its records in Seq order and the drainer's cut (see
	// sweepLocked) never passes a record that is not yet pushed.
	*slot = Record{Event: ev, Seq: l.seq.Add(1), Time: now}
	first := sh.n == 1
	sh.mu.Unlock()
	// Only the record that makes a ring non-empty wakes the drainer:
	// a non-empty ring already has a sweep coming (sweepLocked wakes
	// itself again for records it leaves behind), and sparing every
	// other emit a channel operation keeps emitters off the channel
	// lock.
	if first {
		l.wakeDrainer()
	}
}

// wakeDrainer schedules a drainer pass without blocking; a pending
// wake already covers this one.
func (l *Log) wakeDrainer() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// SetAdmission installs (or, with nil… keeps) the backpressure hook.
// Install it before traffic flows: records admitted while no hook was
// installed are never released against it.
func (l *Log) SetAdmission(a Admission) {
	if a != nil {
		l.admission.Store(a)
	}
}

// releaseOne returns one pending-record admission for user.
func (l *Log) releaseOne(user string) {
	if v := l.admission.Load(); v != nil {
		v.(Admission).ReleaseRecords(user, 1)
	}
}

// releaseBatch returns the committed records' admissions, coalesced
// per user so a single-user storm costs one hook call per batch.
func (l *Log) releaseBatch(batch []Record) {
	v := l.admission.Load()
	if v == nil {
		return
	}
	adm := v.(Admission)
	if l.relUsers == nil {
		l.relUsers = make(map[string]int)
	}
	for i := range batch {
		if batch[i].User != "" {
			l.relUsers[batch[i].User]++
		}
	}
	for user, n := range l.relUsers {
		adm.ReleaseRecords(user, n)
		delete(l.relUsers, user)
	}
}

// Mask returns the current category mask. Safe on a nil Log.
func (l *Log) Mask() Category {
	if l == nil {
		return 0
	}
	return Category(l.mask.Load())
}

// SetMask replaces the category mask.
func (l *Log) SetMask(c Category) { l.mask.Store(uint32(c & CatAll)) }

// Enable turns the given categories on.
func (l *Log) Enable(c Category) {
	for {
		old := l.mask.Load()
		if l.mask.CompareAndSwap(old, old|uint32(c&CatAll)) {
			return
		}
	}
}

// Disable turns the given categories off.
func (l *Log) Disable(c Category) {
	for {
		old := l.mask.Load()
		if l.mask.CompareAndSwap(old, old&^uint32(c)) {
			return
		}
	}
}

// ----- consumption side -----

// Run is the drainer loop: it sweeps the shards whenever an emitter
// wakes it (or the flush interval elapses), groups records into Merkle
// batch commits (a partial batch may wait up to MerkleWait for
// company) and fans them out to subscribers. It returns after a final
// forced sweep once stop closes. The platform runs this on a daemon
// thread; tests may also drive the log synchronously with Sync.
func (l *Log) Run(stop <-chan struct{}) {
	ticker := time.NewTicker(l.flushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			l.Sync()
			return
		case <-l.wake:
			l.drain(false)
		case <-ticker.C:
			l.drain(false)
		}
	}
}

// Sync synchronously drains every shard into the chained segments and
// to subscribers, committing any partial batch immediately. Emitters
// are only briefly blocked (one ring copy per shard); hashing,
// persistence and fan-out happen outside the shard locks.
func (l *Log) Sync() { l.drain(true) }

// drain runs one drainer pass; force commits partial batches without
// waiting out MerkleWait.
func (l *Log) drain(force bool) {
	l.drainMu.Lock()
	defer l.drainMu.Unlock()
	l.drainLocked(force)
}

// Close performs a final drain. The Log remains usable for queries.
func (l *Log) Close() { l.Sync() }

// drainLocked sweeps the rings, fans the swept records out to
// subscribers, and commits them — as Merkle batches, or one at a time
// in ChainPerRecord mode. Caller holds drainMu.
func (l *Log) drainLocked(force bool) {
	if l.legacy {
		l.drainLegacyLocked()
		return
	}
	// Sweep the rings straight onto the tail of the hold; it stays in
	// Seq order because every record swept now is past the previous
	// cut. Fan the new records out to live subscribers right away
	// (their latency should track the flush interval, not MerkleWait).
	held := len(l.hold)
	l.hold = l.sweepLocked(l.hold)
	if len(l.hold) > held {
		if held == 0 {
			l.holdSince = l.clock()
		}
		l.fanOut(l.hold[held:])
	}
	if len(l.hold) == 0 {
		return
	}
	// Commit loop: full batches always go; the trailing partial batch
	// goes when forced (Sync/shutdown) or once it has waited out
	// MerkleWait. A batch never spans a segment boundary.
	committed := 0
	for {
		avail := len(l.hold) - committed
		if avail == 0 {
			break
		}
		n := min(l.merkleBatch, l.segmentRecords-l.segCount)
		if avail < n {
			if !force && l.clock().Sub(l.holdSince) < l.merkleWait {
				break
			}
			n = avail
		}
		l.commitBatch(l.hold[committed : committed+n])
		committed += n
	}
	if committed > 0 {
		rest := copy(l.hold, l.hold[committed:])
		l.hold = l.hold[:rest]
		l.holdSince = l.clock()
		l.flushPending()
	}
}

// commitBatch encodes one batch of records as segment-v2 leaf lines,
// builds their Merkle tree, links the root into the header chain and
// stages the header + leaves for persistence. Caller holds drainMu;
// the batch is non-empty and fits the current segment.
func (l *Log) commitBatch(batch []Record) {
	if l.segCount == 0 {
		l.pending = append(l.pending, segVersionLine...)
		l.segLines = 1
	}
	// Encode the leaf lines into the reused buffer, remembering each
	// line's end offset so group hashing can slice them back out.
	l.leafBuf = l.leafBuf[:0]
	l.leafOffs = l.leafOffs[:0]
	var mask Category
	for i := range batch {
		l.leafBuf = l.bodyMemo.appendBody(l.leafBuf, &batch[i])
		l.leafOffs = append(l.leafOffs, len(l.leafBuf))
		l.leafBuf = append(l.leafBuf, '\n')
		mask |= batch[i].Cat
	}
	// Level 0: hash the leaf lines in groups of eight.
	l.level0 = l.level0[:0]
	var lines [merkleFanOut][]byte
	var h [32]byte
	for g := 0; g < len(batch); g += merkleFanOut {
		e := min(g+merkleFanOut, len(batch))
		k := 0
		for i := g; i < e; i++ {
			start := 0
			if i > 0 {
				start = l.leafOffs[i-1] + 1
			}
			lines[k] = l.leafBuf[start:l.leafOffs[i]]
			k++
		}
		h, l.hashBuf = leafGroupHash(l.hashBuf, lines[:k])
		l.level0 = append(l.level0, h)
	}
	root, hashBuf := merkleRoot(l.level0, l.hashBuf)
	l.hashBuf = hashBuf

	// Header: base fields, then the chain link over prev ++ base.
	first, last := batch[0].Seq, batch[len(batch)-1].Seq
	meta := batchMeta{
		idx:     l.batches,
		hdrOff:  l.segOff + len(l.pending),
		hdrLine: l.segLines + 1,
		count:   len(batch),
		first:   first,
		last:    last,
		mask:    mask,
		root:    root,
	}
	hdrStart := len(l.pending)
	l.pending = appendHeaderBase(l.pending, meta.idx, meta.count, first, last, mask, root)
	var link [32]byte
	link, hashBuf = chainLink(l.hashBuf, l.prev, l.pending[hdrStart:])
	l.hashBuf = hashBuf
	meta.chain = link
	l.pending = append(l.pending, '\t')
	l.pending = appendHex(l.pending, link)
	l.pending = append(l.pending, '\n')
	meta.dataOff = l.segOff + len(l.pending)
	l.pending = append(l.pending, l.leafBuf...)
	meta.end = l.segOff + len(l.pending)

	// Commit: chain state, per-segment index, counters, admission.
	l.prev = link
	l.lastRoot = root
	l.batches++
	name := segmentName(l.seg)
	idx := l.segIdx[name]
	if idx == nil {
		idx = &segIndex{}
		l.segIdx[name] = idx
	}
	idx.batches = append(idx.batches, meta)
	l.segCount += len(batch)
	l.segLines += 1 + len(batch)
	l.chained.Add(uint64(len(batch)))
	l.releaseBatch(batch)

	if l.segCount >= l.segmentRecords {
		l.flushPending()
		l.seg++
		l.segCount = 0
		l.segOff = 0
		l.segLines = 0
	}
}

// flushPending appends the staged bytes to the current segment.
func (l *Log) flushPending() {
	if len(l.pending) == 0 {
		return
	}
	if err := l.store.Append(segmentName(l.seg), l.pending); err != nil && l.storeErr == nil {
		l.storeErr = err
	}
	l.segOff += len(l.pending)
	l.pending = l.pending[:0]
}

// drainLegacyLocked is the ChainPerRecord consumption side: sweep,
// hash-chain one record at a time into v1 segments, fan out. It is
// both the v1-format writer the compatibility tests need and the
// measured baseline the Merkle drainer is benchmarked against.
func (l *Log) drainLegacyLocked() {
	batch := l.sweepLocked(nil)
	if len(batch) == 0 {
		return
	}

	// Chain and persist, rotating segments as they fill. The chain
	// input is prev-hash ++ body, built in reused buffers so the loop
	// allocates only each record's hex hash string.
	var chain, pending []byte
	segName := segmentName(l.seg)
	flush := func() {
		if len(pending) == 0 {
			return
		}
		if err := l.store.Append(segName, pending); err != nil && l.storeErr == nil {
			l.storeErr = err
		}
		pending = pending[:0]
	}
	for i := range batch {
		rec := &batch[i]
		chain = append(chain[:0], l.prev[:]...)
		chain = rec.appendBody(chain)
		sum := sha256.Sum256(chain)
		copy(l.prev[:], sum[:])
		rec.Hash = hex.EncodeToString(sum[:])

		pending = append(pending, chain[len(l.prev):]...)
		pending = append(pending, '\t')
		pending = append(pending, rec.Hash...)
		pending = append(pending, '\n')
		l.segCount++
		l.chained.Add(1)
		if l.segCount >= l.segmentRecords {
			flush()
			l.seg++
			l.segCount = 0
			segName = segmentName(l.seg)
		}
	}
	flush()
	l.releaseBatch(batch)
	l.fanOut(batch)
}

// sweepLocked appends to dst, in Seq order, every ring record at or
// below a cut taken from the sequence counter before the sweep, and
// leaves later records in their rings for the next pass. The sweep
// locks one shard at a time, yet the cut is consistent: a record with
// Seq <= cut got its number under its shard's lock before the cut was
// read, so it is in its ring (or was displaced by overflow) by the
// time the drainer takes that lock. Every later sweep therefore sees
// only records past this cut, and the committed trail never goes
// backwards. Each ring is already in Seq order (Seq is taken under its
// lock), so a k-way merge of the per-shard runs replaces a sort.
// Caller holds drainMu.
func (l *Log) sweepLocked(dst []Record) []Record {
	cut := l.seq.Load()
	l.sweep = l.sweep[:0]
	l.runs = l.runs[:0]
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		k := sh.n
		for k > 0 && sh.buf[(sh.start+k-1)%len(sh.buf)].Seq > cut {
			k--
		}
		if k > 0 {
			lo := len(l.sweep)
			if end := sh.start + k; end <= len(sh.buf) {
				l.sweep = append(l.sweep, sh.buf[sh.start:end]...)
			} else {
				l.sweep = append(l.sweep, sh.buf[sh.start:]...)
				l.sweep = append(l.sweep, sh.buf[:end-len(sh.buf)]...)
			}
			sh.start = (sh.start + k) % len(sh.buf)
			sh.n -= k
			l.runs = append(l.runs, run{lo, len(l.sweep)})
		}
		left := sh.n > 0
		sh.mu.Unlock()
		if left {
			// Records past the cut stay queued; their emitters found
			// the ring non-empty and sent no wake, so schedule the
			// next pass here.
			l.wakeDrainer()
		}
	}
	return mergeRuns(dst, l.sweep, l.runs)
}

// run is one shard's swept records, src[lo:hi], ascending by Seq.
type run struct{ lo, hi int }

// mergeRuns appends the Seq-ordered merge of the non-empty sorted runs
// of src to dst. With at most one run per shard, a linear scan for
// the smallest head beats a heap.
func mergeRuns(dst, src []Record, runs []run) []Record {
	for len(runs) > 1 {
		m := 0
		for i := 1; i < len(runs); i++ {
			if src[runs[i].lo].Seq < src[runs[m].lo].Seq {
				m = i
			}
		}
		dst = append(dst, src[runs[m].lo])
		if runs[m].lo++; runs[m].lo == runs[m].hi {
			runs[m] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
	}
	if len(runs) == 1 {
		dst = append(dst, src[runs[0].lo:runs[0].hi]...)
	}
	return dst
}

// fanOut delivers records to subscribers: bounded, non-blocking — a
// slow consumer loses records (counted), never stalls the drainer.
// The subscriber set is snapshotted once per batch so registration
// churn only contends on subMu for the copy, not the deliveries
// (per-subscription locks make Close safe against in-flight sends).
func (l *Log) fanOut(recs []Record) {
	l.subMu.Lock()
	l.subSnap = l.subSnap[:0]
	for _, s := range l.subs {
		l.subSnap = append(l.subSnap, s)
	}
	l.subMu.Unlock()
	for _, s := range l.subSnap {
		s.deliver(recs, l)
	}
	// Drop the references so Close'd subscriptions are collectable.
	for i := range l.subSnap {
		l.subSnap[i] = nil
	}
	l.subSnap = l.subSnap[:0]
}

// segmentName formats the idx-th segment's name; zero-padding keeps
// lexical order equal to chain order.
func segmentName(idx int) string { return fmt.Sprintf("seg-%06d.log", idx) }

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (int, bool) {
	s, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, ".log")
	if !ok {
		return 0, false
	}
	idx, err := strconv.Atoi(s)
	if err != nil || idx < 0 {
		return 0, false
	}
	return idx, true
}

// ----- subscriptions -----

// Subscription is one live consumer of the audit stream.
type Subscription struct {
	name         string
	mask         Category
	ch           chan Record
	log          *Log
	id           int
	droppedCount atomic.Uint64
	closeOnce    sync.Once

	// mu orders deliveries against Close: the drainer sends under it,
	// Close marks closed under it, so no send-on-closed-channel race
	// — without serializing different subscribers against each other.
	mu     sync.Mutex
	closed bool
}

// Subscribe attaches a live consumer receiving every future record
// matching mask, through a bounded queue of the given capacity
// (minimum 1). Records the consumer is too slow for are dropped and
// counted; the drainer never blocks on a subscriber.
func (l *Log) Subscribe(name string, mask Category, capacity int) *Subscription {
	if capacity < 1 {
		capacity = 1
	}
	s := &Subscription{name: name, mask: mask, ch: make(chan Record, capacity), log: l}
	l.subMu.Lock()
	l.nextSub++
	s.id = l.nextSub
	l.subs[s.id] = s
	l.subMu.Unlock()
	return s
}

// deliver offers every mask-matching record to the subscription.
func (s *Subscription) deliver(recs []Record, l *Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for i := range recs {
		if s.mask&recs[i].Cat == 0 {
			continue
		}
		select {
		case s.ch <- recs[i]:
		default:
			s.droppedCount.Add(1)
			l.subDropped.Add(1)
		}
	}
}

// C is the subscription's delivery channel. It is closed by Close.
func (s *Subscription) C() <-chan Record { return s.ch }

// Name returns the diagnostic name given at Subscribe.
func (s *Subscription) Name() string { return s.name }

// Dropped returns how many records this subscriber was too slow for.
func (s *Subscription) Dropped() uint64 { return s.droppedCount.Load() }

// Close detaches the subscription and closes its channel. Safe to call
// concurrently with a draining Log and more than once.
func (s *Subscription) Close() {
	s.closeOnce.Do(func() {
		s.log.subMu.Lock()
		delete(s.log.subs, s.id)
		s.log.subMu.Unlock()
		// The drainer may hold a snapshot reference; the closed flag
		// under s.mu keeps it from sending past this point.
		s.mu.Lock()
		s.closed = true
		close(s.ch)
		s.mu.Unlock()
	})
}

// ----- query -----

// Query filters the persisted log. Zero fields match everything.
type Query struct {
	// Cats selects categories (0 = all).
	Cats Category
	// User matches Record.User exactly ("" = any).
	User string
	// App matches Record.App (0 = any).
	App int64
	// Verb matches Record.Verb exactly ("" = any).
	Verb string
	// Since/Until bound Record.Time in Unix nanoseconds (0 = open).
	Since, Until int64
	// Limit keeps only the last Limit matches (0 = all).
	Limit int
}

// match reports whether a record satisfies the query.
func (q *Query) match(r *Record) bool {
	if q.Cats != 0 && q.Cats&r.Cat == 0 {
		return false
	}
	if q.User != "" && q.User != r.User {
		return false
	}
	if q.App != 0 && q.App != r.App {
		return false
	}
	if q.Verb != "" && q.Verb != r.Verb {
		return false
	}
	if q.Since != 0 && r.Time < q.Since {
		return false
	}
	if q.Until != 0 && r.Time > q.Until {
		return false
	}
	return true
}

// Query returns the persisted records matching q, in chain order.
// Category-filtered queries consult the per-segment batch index and
// skip whole batches (and whole segments, when the index is already
// cached, without re-reading them) whose category mask can't match.
// Records still sitting in emission rings or the partial-batch hold
// are not seen; call Sync first for read-your-writes.
func (l *Log) Query(q Query) ([]Record, error) {
	l.drainMu.Lock()
	defer l.drainMu.Unlock()
	names, err := l.listSegments()
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, name := range names {
		idx := l.segIdx[name]
		if idx != nil && !idx.v1 && q.Cats != 0 && !idx.anyMask(q.Cats) {
			continue // no batch can match: skip without reading
		}
		data, err := l.store.Read(name)
		if err != nil {
			return nil, err
		}
		if idx == nil || !idx.spans(len(data)) {
			if idx, err = buildSegIndex(data); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			l.segIdx[name] = idx
		}
		if idx.v1 {
			off, lineNo := 0, 0
			for off < len(data) {
				line, next := nextLine(data, off)
				off = next
				lineNo++
				if len(line) == 0 {
					continue
				}
				rec, err := parseRecordLine(line, true)
				if err != nil {
					return nil, fmt.Errorf("%s line %d: %w", name, lineNo, err)
				}
				if q.match(&rec) {
					out = append(out, rec)
				}
			}
			continue
		}
		for bi := range idx.batches {
			m := &idx.batches[bi]
			if q.Cats != 0 && m.mask&q.Cats == 0 {
				continue // whole batch filtered by the header mask
			}
			off := m.dataOff
			for r := 0; r < m.count && off < m.end; r++ {
				line, next := nextLine(data, off)
				off = next
				rec, err := parseRecordLine(line, false)
				if err != nil {
					return nil, fmt.Errorf("%s batch %d: %w", name, m.idx, err)
				}
				if q.match(&rec) {
					out = append(out, rec)
				}
			}
		}
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out, nil
}

// spans reports whether the index's byte offsets fit inside a segment
// of n bytes — false means the segment shrank behind the cache
// (external truncation) and the index must be rebuilt from the data.
func (si *segIndex) spans(n int) bool {
	if len(si.batches) == 0 {
		return true
	}
	return si.batches[len(si.batches)-1].end <= n
}

// anyMask reports whether any batch's category mask intersects c.
func (si *segIndex) anyMask(c Category) bool {
	for i := range si.batches {
		if si.batches[i].mask&c != 0 {
			return true
		}
	}
	return false
}

// listSegments returns the store's segment names in chain order.
func (l *Log) listSegments() ([]string, error) {
	names, err := l.store.List()
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// buildSegIndex scans a segment this instance didn't write and
// reconstructs its batch index (or tags it v1).
func buildSegIndex(data []byte) (*segIndex, error) {
	if !isV2Segment(data) {
		return &segIndex{v1: true}, nil
	}
	idx := &segIndex{}
	first, off := nextLine(data, 0)
	if string(first) != strings.TrimSuffix(segVersionLine, "\n") {
		return nil, fmt.Errorf("audit: unknown segment version %q", first)
	}
	lineNo := 1
	for off < len(data) {
		line, next := nextLine(data, off)
		if len(line) == 0 && next >= len(data) {
			break
		}
		lineNo++
		m, err := parseBatchHeader(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		m.hdrOff = off
		m.hdrLine = lineNo
		m.dataOff = next
		off = next
		for r := 0; r < m.count && off < len(data); r++ {
			_, off = nextLine(data, off)
			lineNo++
		}
		m.end = off
		idx.batches = append(idx.batches, m)
	}
	return idx, nil
}

// ----- verify -----

// VerifyOptions selects how much of the trail VerifyWith rehashes.
type VerifyOptions struct {
	// Full recomputes every leaf hash and batch root (and, for v1
	// segments, every record hash — those are always fully walked).
	// When false, v2 segments are checked by root: every batch
	// header's chain link is recomputed and leaf lines are counted,
	// but leaves are not rehashed unless spot-checked.
	Full bool
	// SpotCheck fully rehashes this many batches in by-root mode,
	// picked deterministically from the walked chain head — so which
	// batches get rehashed changes as the trail grows and cannot be
	// predicted when tampering.
	SpotCheck int
	// AnchorChain/AnchorRecords, when set, check the walked trail
	// against an externally published head (hex chain value, total
	// record count). This is what pins down tail truncation across
	// restarts: publish Stats().LastChain and Stats().Records
	// out-of-band, and verify against them later. A live Log also
	// checks its own in-memory head automatically.
	AnchorChain   string
	AnchorRecords uint64
}

// BatchFault is one localized v2 verification failure: the batch it
// names failed (root mismatch, count mismatch, bad ordering) but the
// chain before and after it still links, so later batches remain
// individually trustworthy — unlike a per-record chain, corruption
// does not condemn everything after it.
type BatchFault struct {
	Segment string
	Batch   int    // root-chain position
	Line    int    // 1-based header line within the segment
	First   uint64 // the batch's sequence range
	Last    uint64
	Reason  string
}

// VerifyResult reports the outcome of a trail walk.
type VerifyResult struct {
	// Mode is "full" or "roots".
	Mode string
	// Segments, Records and Batches count what was walked.
	Segments int
	Records  int
	Batches  int
	// SpotChecked counts batches fully rehashed in by-root mode.
	SpotChecked int
	// OK is true when every link checked out.
	OK bool
	// BrokenSegment/BrokenLine locate the first failure (line is
	// 1-based within the segment) when OK is false.
	BrokenSegment string
	BrokenLine    int
	// Reason describes the first failure.
	Reason string
	// Faults lists every localized batch failure.
	Faults []BatchFault
	// LastRoot/LastChain echo the walked trail's head — publish them
	// (with Records) as the anchor a later verify checks against.
	LastRoot  string
	LastChain string
}

// Verify re-walks every persisted segment recomputing every hash: v1
// records are re-chained from genesis, v2 leaves are rehashed into
// their batch roots and the root chain is re-linked. Any in-place
// modification, reorder or insertion is caught; v2 corruption is
// localized to its batch. A live Log also checks the walked head
// against its in-memory chain state, which catches tail truncation;
// across restarts, pass an explicit anchor to VerifyWith instead.
func (l *Log) Verify() (VerifyResult, error) {
	return l.VerifyWith(VerifyOptions{Full: true})
}

// VerifyWith verifies the trail per the given options. By-root mode
// (Full false) checks segment structure, every chain link and the
// anchors without rehashing leaf lines — O(batches) hashing instead of
// O(records) — and optionally spot-checks a few batches in full.
func (l *Log) VerifyWith(o VerifyOptions) (VerifyResult, error) {
	l.drainMu.Lock()
	defer l.drainMu.Unlock()
	res := VerifyResult{OK: true, Mode: "roots"}
	if o.Full {
		res.Mode = "full"
	}
	names, err := l.listSegments()
	if err != nil {
		return VerifyResult{}, err
	}
	fault := func(seg string, line int, reason string, m *batchMeta) {
		f := BatchFault{Segment: seg, Line: line, Batch: -1, Reason: reason}
		if m != nil {
			f.Batch, f.First, f.Last = m.idx, m.first, m.last
		}
		res.Faults = append(res.Faults, f)
		if res.OK {
			res.OK = false
			res.BrokenSegment, res.BrokenLine, res.Reason = seg, line, reason
		}
	}
	var (
		prevChain [32]byte // v2 root chain state
		prevRec   [32]byte // v1 record chain state
		lastRoot  [32]byte
		lastSeq   uint64
		v1Broken  bool
		sawV1     bool
		sawV2     bool
		chainBuf  []byte
		spotRefs  []spotRef
	)
	for _, name := range names {
		data, err := l.store.Read(name)
		if err != nil {
			return VerifyResult{}, err
		}
		res.Segments++
		if !isV2Segment(data) {
			// v1 segment: always a full per-record chain walk — there
			// are no roots to verify by. The first broken link ends
			// the v1 check ("chain broken from here").
			if sawV2 {
				fault(name, 1, "v1 segment after v2 segments", nil)
				continue
			}
			sawV1 = true
			off, lineNo := 0, 0
			for off < len(data) {
				line, next := nextLine(data, off)
				off = next
				lineNo++
				if len(line) == 0 {
					continue
				}
				rec, err := parseRecordLine(line, true)
				if err != nil {
					return VerifyResult{}, fmt.Errorf("%s line %d: %w", name, lineNo, err)
				}
				if v1Broken {
					continue
				}
				res.Records++
				chainBuf = append(chainBuf[:0], prevRec[:]...)
				chainBuf = rec.appendBody(chainBuf)
				digest := sha256.Sum256(chainBuf)
				sum := hex.EncodeToString(digest[:])
				switch {
				case sum != rec.Hash:
					fault(name, lineNo, fmt.Sprintf("hash mismatch at seq %d (chain broken from here)", rec.Seq), nil)
					v1Broken = true
				case rec.Seq <= lastSeq:
					fault(name, lineNo, fmt.Sprintf("sequence not increasing: %d after %d", rec.Seq, lastSeq), nil)
					v1Broken = true
				default:
					prevRec = digest
					lastSeq = rec.Seq
				}
			}
			continue
		}
		sawV2 = true
		// Never trust the cached index here: verification is the
		// adversarial path, and a tampered or truncated segment must be
		// judged by the bytes actually on disk.
		idx, err := buildSegIndex(data)
		if err != nil {
			fault(name, 1, fmt.Sprintf("unparseable segment: %v", err), nil)
			continue
		}
		l.segIdx[name] = idx
		for bi := range idx.batches {
			m := &idx.batches[bi]
			res.Batches++
			if want := m.chainFrom(prevChain); want != m.chain {
				fault(name, m.hdrLine, fmt.Sprintf("root chain mismatch at batch %d", m.idx), m)
				// Re-anchor on the stored link so independent later
				// corruptions still surface; the first fault already
				// marks everything from here untrusted.
			}
			if m.first <= lastSeq || m.last < m.first {
				fault(name, m.hdrLine, fmt.Sprintf("batch %d sequence range [%d,%d] not increasing after %d", m.idx, m.first, m.last, lastSeq), m)
			}
			if o.Full {
				n, reason := verifyBatchLeaves(data, m)
				res.Records += n
				if reason != "" {
					fault(name, m.hdrLine, reason, m)
				}
			} else {
				n := countLines(data[m.dataOff:m.end])
				res.Records += n
				if n != m.count {
					fault(name, m.hdrLine, fmt.Sprintf("batch %d holds %d leaf lines, header says %d", m.idx, n, m.count), m)
				}
				spotRefs = append(spotRefs, spotRef{name: name, seg: data, meta: m})
			}
			prevChain = m.chain
			lastRoot = m.root
			lastSeq = m.last
		}
	}
	// Spot checks: by-root mode optionally rehashes a few batches in
	// full, chosen from the walked chain head — deterministic for a
	// given trail, unpredictable before the tampering.
	if !o.Full && o.SpotCheck > 0 && len(spotRefs) > 0 {
		seed := prevChain
		for i := 0; i < o.SpotCheck && i < len(spotRefs); i++ {
			pick := binary.BigEndian.Uint64(seed[(i*8)%25:]) % uint64(len(spotRefs))
			ref := spotRefs[pick]
			res.SpotChecked++
			if _, reason := verifyBatchLeaves(ref.seg, ref.meta); reason != "" {
				fault(ref.name, ref.meta.hdrLine, "spot check: "+reason, ref.meta)
			}
			seed = sha256.Sum256(seed[:])
		}
	}
	// Anchors: an explicit published head, or — on a live Log — the
	// in-memory chain state. Either pins down tail truncation, which
	// no amount of rehashing surviving records can see.
	if sawV2 || !sawV1 {
		res.LastChain = hex.EncodeToString(prevChain[:])
		res.LastRoot = hex.EncodeToString(lastRoot[:])
	} else {
		res.LastChain = hex.EncodeToString(prevRec[:])
	}
	if o.AnchorChain != "" && res.OK && o.AnchorChain != res.LastChain {
		res.OK = false
		res.Reason = "trail head does not match the anchored chain value (tail truncated or rewritten)"
	}
	if o.AnchorRecords != 0 && res.OK && o.AnchorRecords != uint64(res.Records) {
		res.OK = false
		res.Reason = fmt.Sprintf("trail holds %d records, anchor says %d (tail truncated?)", res.Records, o.AnchorRecords)
	}
	if res.OK && !v1Broken {
		live := hex.EncodeToString(l.prev[:])
		if l.batches > 0 && sawV2 && res.LastChain != live {
			res.OK = false
			res.Reason = "trail head does not match the live chain state (tail truncated or rewritten)"
		}
		if l.legacy && l.chained.Load() > 0 && !sawV2 && res.LastChain != live {
			res.OK = false
			res.Reason = "trail head does not match the live chain state (tail truncated or rewritten)"
		}
	}
	return res, nil
}

// spotRef remembers a walked batch so the spot-check pass can rehash
// it after the chain head (the pick seed) is known.
type spotRef struct {
	name string
	seg  []byte
	meta *batchMeta
}

// verifyBatchLeaves rehashes a batch's leaf lines and checks them
// against the header: line count, per-record parse, in-batch sequence
// ordering and range, and finally the Merkle root. Returns the leaf
// count walked and "" on success.
func verifyBatchLeaves(data []byte, m *batchMeta) (int, string) {
	off := m.dataOff
	var (
		level0  [][32]byte
		lines   [merkleFanOut][]byte
		k       int
		buf     []byte
		h       [32]byte
		n       int
		lastSeq uint64
	)
	for off < m.end {
		line, next := nextLine(data, off)
		off = next
		if len(line) == 0 {
			continue
		}
		rec, err := parseRecordLine(line, false)
		if err != nil {
			return n, fmt.Sprintf("batch %d leaf %d: %v", m.idx, n, err)
		}
		if rec.Seq < m.first || rec.Seq > m.last {
			return n, fmt.Sprintf("batch %d leaf %d: seq %d outside header range [%d,%d]", m.idx, n, rec.Seq, m.first, m.last)
		}
		if n > 0 && rec.Seq <= lastSeq {
			return n, fmt.Sprintf("batch %d leaf %d: seq %d not increasing after %d", m.idx, n, rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		lines[k] = line
		k++
		n++
		if k == merkleFanOut {
			h, buf = leafGroupHash(buf, lines[:k])
			level0 = append(level0, h)
			k = 0
		}
	}
	if k > 0 {
		h, buf = leafGroupHash(buf, lines[:k])
		level0 = append(level0, h)
	}
	if n != m.count {
		return n, fmt.Sprintf("batch %d holds %d leaf lines, header says %d", m.idx, n, m.count)
	}
	if n == 0 {
		return 0, fmt.Sprintf("batch %d is empty", m.idx)
	}
	root, _ := merkleRoot(level0, buf)
	if root != m.root {
		return n, fmt.Sprintf("batch %d root mismatch: a leaf in seqs [%d,%d] was tampered", m.idx, m.first, m.last)
	}
	return n, ""
}

// countLines counts newline-terminated lines (memchr, no parsing).
func countLines(data []byte) int {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

// hexDecodeInto decodes src hex into dst; src is a hash this package
// produced, so decode errors cannot occur.
func hexDecodeInto(dst []byte, src string) {
	_, _ = hex.Decode(dst, []byte(src))
}

// ----- stats -----

// CategoryStats is one category's counters.
type CategoryStats struct {
	Name    string
	Enabled bool
	Emitted uint64
	Dropped uint64
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// Mask is the current category mask.
	Mask Category
	// Categories lists per-category counters in bit order.
	Categories []CategoryStats
	// Emitted/Dropped total the per-category counters.
	Emitted uint64
	Dropped uint64
	// Degraded counts records rejected by the backpressure Admission
	// hook (a subset of Dropped).
	Degraded uint64
	// Records is how many records have been chained to segments.
	Records uint64
	// Batches is how many Merkle batches have been committed (the
	// root-chain length).
	Batches int64
	// LastRoot/LastChain are the newest batch's Merkle root and
	// chain link (hex). Publish them with Records as the anchor that
	// lets a later VerifyWith detect tail truncation.
	LastRoot  string
	LastChain string
	// Segments is how many segments exist.
	Segments int64
	// Pending counts records emitted but not yet chained (in rings or
	// held for a partial batch); Held is the held subset.
	Pending int
	Held    int
	// Subscribers is the number of live subscriptions;
	// SubscriberDrops totals records lost to slow subscribers.
	Subscribers     int
	SubscriberDrops uint64
	// StoreErr reports the first segment-store failure, if any.
	StoreErr error
}

// Stats returns a snapshot of the log's counters. It holds drainMu
// while it reads the rings, the hold and the chained count, so a record
// the drainer moves meanwhile is counted exactly once: Records +
// Dropped + Pending == Emitted whenever no Emit is in flight.
func (l *Log) Stats() Stats {
	l.drainMu.Lock()
	defer l.drainMu.Unlock()
	st := Stats{Mask: Category(l.mask.Load())}
	for i := 0; i < numCategories; i++ {
		cs := CategoryStats{
			Name:    catNames[i],
			Enabled: st.Mask&(1<<i) != 0,
			Emitted: l.emitted[i].Load(),
			Dropped: l.dropped[i].Load(),
		}
		st.Emitted += cs.Emitted
		st.Dropped += cs.Dropped
		st.Categories = append(st.Categories, cs)
	}
	st.Degraded = l.degraded.Load()
	st.Records = l.chained.Load()
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		st.Pending += sh.n
		sh.mu.Unlock()
	}
	l.subMu.Lock()
	st.Subscribers = len(l.subs)
	l.subMu.Unlock()
	st.SubscriberDrops = l.subDropped.Load()
	st.StoreErr = l.storeErr
	st.Segments = int64(l.seg)
	if l.segCount > 0 {
		st.Segments++ // the partially filled current segment
	}
	st.Held = len(l.hold)
	st.Pending += len(l.hold)
	st.Batches = int64(l.batches)
	if l.batches > 0 {
		st.LastRoot = hex.EncodeToString(l.lastRoot[:])
	}
	if l.batches > 0 || (l.legacy && st.Records > 0) {
		st.LastChain = hex.EncodeToString(l.prev[:])
	}
	return st
}
