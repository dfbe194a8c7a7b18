package objspace

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/audit"
	"mpj/internal/classes"
)

// Mode selects the concurrency-control protocol for transactions.
// ModeAdaptive is the default and the one production deployments
// want; the pure modes exist so the benchmark suite can compare the
// three designs under identical workloads.
type Mode int32

const (
	// ModeAdaptive runs optimistically but escalates individual hot
	// records (high abort-rate estimate) to pessimistic encounter-time
	// locking, and de-escalates them when contention subsides.
	ModeAdaptive Mode = iota
	// ModeOCC is pure optimistic concurrency control: execute against
	// versioned snapshots, validate-and-install under per-record
	// try-latches taken in sorted name order, abort on any conflict.
	ModeOCC
	// ModeLocking is pure pessimistic locking: every record is locked
	// at first access and held to commit end. Deadlock is avoided by
	// ascending-name acquisition; an out-of-order access restarts the
	// transaction with its footprint pre-locked in sorted order.
	ModeLocking
)

func (m Mode) String() string {
	switch m {
	case ModeAdaptive:
		return "adaptive"
	case ModeOCC:
		return "occ"
	case ModeLocking:
		return "locking"
	}
	return fmt.Sprintf("mode(%d)", int32(m))
}

// SetMode switches the concurrency-control protocol for transactions
// started afterwards.
func (s *Space) SetMode(m Mode) { s.mode.Store(int32(m)) }

// Mode returns the current concurrency-control protocol.
func (s *Space) Mode() Mode { return Mode(s.mode.Load()) }

// txCounters are the space-wide transaction statistics. The
// conservation law Attempts == Commits + Aborts holds at quiescence:
// every attempt ends in exactly one of the two.
type txCounters struct {
	attempts      atomic.Uint64
	commits       atomic.Uint64
	aborts        atomic.Uint64
	escalations   atomic.Uint64
	deescalations atomic.Uint64
}

// TxStats is a snapshot of the space's transaction counters.
type TxStats struct {
	// Attempts counts started transaction attempts (each Atomically
	// retry is its own attempt).
	Attempts uint64
	// Commits and Aborts partition finished attempts:
	// Attempts == Commits + Aborts at quiescence.
	Commits uint64
	Aborts  uint64
	// Escalations / Deescalations count records switched to and from
	// pessimistic locking by the contention estimator.
	Escalations   uint64
	Deescalations uint64
	// HotRecords is the number of records currently escalated.
	HotRecords int64
}

// TxStats returns a snapshot of the transaction counters.
func (s *Space) TxStats() TxStats {
	esc := s.stats.escalations.Load()
	de := s.stats.deescalations.Load()
	return TxStats{
		Attempts:      s.stats.attempts.Load(),
		Commits:       s.stats.commits.Load(),
		Aborts:        s.stats.aborts.Load(),
		Escalations:   esc,
		Deescalations: de,
		HotRecords:    int64(esc) - int64(de),
	}
}

// errRestart aborts a pessimistic attempt that would acquire record
// locks out of ascending name order; Atomically retries it with the
// discovered footprint pre-locked in sorted order.
var errRestart = errors.New("objspace: lock-order restart")

// txAccess is one record touched by a transaction: the version
// observed at first read, the snapshot it read, and the pending write
// if any. held marks records whose latch the transaction holds: taken
// at access time (pessimistic path) or by Commit for its writes.
type txAccess struct {
	name  string
	rec   *record
	seen  uint64
	read  *Entry
	write *Entry
	held  bool
}

// Tx is one multi-object atomic transaction over bound records.
// Reads are lock-free versioned snapshots; writes are buffered and
// installed at Commit under per-record latches taken in ascending
// name order, after the whole read set validates. A Tx is not safe
// for concurrent use by multiple goroutines; most callers want
// Space.Atomically, which handles conflict retries.
type Tx struct {
	sp          *Space
	owner       int64
	mode        Mode // Space mode, loaded once at begin
	pessimistic bool
	acc         []txAccess
	maxHeld     string // largest name encounter-locked so far
	restartName string // name that triggered errRestart
	typed       bool
	done        bool
}

// Begin starts a transaction attributed to owner (the application ID,
// used for Entry.Owner on writes and for audit events). The caller
// must finish it with exactly one Commit or Abort.
func (s *Space) Begin(owner int64) *Tx {
	tx := &Tx{sp: s, owner: owner}
	tx.begin()
	return tx
}

// txPool recycles Tx structs (and their access-list backing arrays)
// for Atomically, which would otherwise pay two allocations and a
// growslice chain on every transaction — about a quarter of the
// uncontended transfer's cost.
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// release drops record and entry references (a pooled Tx must not
// pin them past the transaction) and returns the Tx to the pool.
func (tx *Tx) release() {
	for i := range tx.acc {
		tx.acc[i] = txAccess{}
	}
	tx.sp = nil
	txPool.Put(tx)
}

func (tx *Tx) begin() {
	tx.sp.stats.attempts.Add(1)
	tx.mode = tx.sp.Mode()
	tx.acc = tx.acc[:0]
	tx.maxHeld = ""
	tx.restartName = ""
	tx.typed = false
	tx.done = false
}

// find returns the existing access for name, or nil. Footprints are
// small, so a linear scan beats a map.
func (tx *Tx) find(name string) *txAccess {
	for i := range tx.acc {
		if tx.acc[i].name == name {
			return &tx.acc[i]
		}
	}
	return nil
}

// open records the first touch of name: resolves the record through
// the lock-free shard directory, takes its versioned snapshot, and —
// on the pessimistic path (ModeLocking, or an adaptively escalated
// record) — acquires its latch first, in ascending name order.
func (tx *Tx) open(name string) (*txAccess, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	rec := tx.sp.shardFor(name).get(name)
	if rec == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotBound, name)
	}
	lock := tx.pessimistic
	var (
		e    *Entry
		seen uint64
	)
	if !lock {
		// Optimistic first touch. The snapshot's state word carries the
		// escalation flag, so the adaptive hot check is free here.
		e, seen = rec.snapshot()
		if e == nil {
			return nil, fmt.Errorf("%w: %s", ErrNotBound, name)
		}
		lock = tx.mode == ModeAdaptive && seen&stateHot != 0
	}
	if lock {
		if tx.maxHeld != "" && name < tx.maxHeld {
			// Locking this record now would violate the ascending-name
			// lock order; restart with the footprint known.
			tx.restartName = name
			return nil, errRestart
		}
		rec.mu.Lock()
		e, seen = rec.snapshot()
		if e == nil {
			rec.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrNotBound, name)
		}
		tx.maxHeld = name
	}
	tx.acc = append(tx.acc, txAccess{name: name, rec: rec, seen: versionOf(seen), read: e, held: lock})
	return &tx.acc[len(tx.acc)-1], nil
}

// prelock acquires the latches of a predicted footprint in sorted
// order before the transaction body runs — the retry path after a
// lock-order restart. Cold records (adaptive mode) and unbound names
// are skipped; the body re-opens them normally.
func (tx *Tx) prelock(names []string) {
	for _, name := range names {
		if tx.find(name) != nil {
			continue
		}
		rec := tx.sp.shardFor(name).get(name)
		if rec == nil {
			continue
		}
		if !tx.pessimistic && !(tx.mode == ModeAdaptive && rec.hotNow()) {
			continue
		}
		rec.mu.Lock()
		e, seen := rec.snapshot()
		if e == nil {
			rec.mu.Unlock()
			continue
		}
		tx.acc = append(tx.acc, txAccess{name: name, rec: rec, seen: versionOf(seen), read: e, held: true})
		tx.maxHeld = name
	}
}

// Get returns the value bound under name as observed by this
// transaction (its own pending write, or the versioned snapshot taken
// at first touch).
func (tx *Tx) Get(name string) (any, error) {
	a := tx.find(name)
	if a == nil {
		var err error
		if a, err = tx.open(name); err != nil {
			return nil, err
		}
	}
	if a.write != nil {
		return a.write.Object, nil
	}
	return a.read.Object, nil
}

// GetAs is Get plus the cross-namespace type-safety check of
// LookupAs: the entry's class identity must match expected exactly,
// or the transaction surfaces ErrTypeConfusion. The check runs
// against the transaction's snapshot, so a typed multi-object commit
// is atomic with respect to its type checks.
func (tx *Tx) GetAs(name string, expected *classes.Class) (any, error) {
	a := tx.find(name)
	if a == nil {
		var err error
		if a, err = tx.open(name); err != nil {
			return nil, err
		}
	}
	e := a.write
	if e == nil {
		e = a.read
	}
	if e.Class != nil || expected != nil {
		tx.typed = true
	}
	if e.Class == expected {
		return e.Object, nil
	}
	return nil, tx.sp.confusionError(e, expected)
}

// Put buffers a write of obj (with class identity, which may be nil
// for untyped values) to an already-bound name. The write installs
// atomically with the rest of the transaction at Commit. Writing an
// unbound name fails with ErrNotBound: transactions update the
// objects applications already share; namespace mutations go through
// Bind/Unbind.
func (tx *Tx) Put(name string, obj any, class *classes.Class) error {
	a := tx.find(name)
	if a == nil {
		var err error
		if a, err = tx.open(name); err != nil {
			return err
		}
	}
	a.write = &Entry{Name: name, Object: obj, Class: class, Owner: tx.owner}
	if class != nil {
		tx.typed = true
	}
	return nil
}

// tryLatch attempts to take a record's write latch without blocking,
// yielding to the scheduler between tries so a preempted holder can
// finish its install.
func tryLatch(r *record) bool {
	for i := 0; i < latchSpinTries; i++ {
		if r.mu.TryLock() {
			return true
		}
		if i%4 == 3 {
			runtime.Gosched()
		}
	}
	return false
}

// Commit validates the read set and installs the write set as one
// atomic unit. Protocol: (1) latch not-yet-held written records in
// ascending name order (try-latch — a busy latch is a conflict); from
// here the transaction holds every record it writes; (2) validate the
// reads with torn: every record it does not hold must be unlatched,
// and every touched record's version must still equal the version
// observed at first read; (3) install the writes, each bumping its
// record's version; (4) release every latch. On conflict nothing is
// installed, the blamed record's abort-rate estimator is charged
// (possibly escalating it), and ErrConflict is returned.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	// Collect not-yet-held written records and insertion-sort them by
	// name (footprints are small; this stays on the stack where
	// sort.Slice would allocate in the commit hot path).
	var latchBuf [8]*txAccess
	latch := latchBuf[:0]
	for i := range tx.acc {
		if a := &tx.acc[i]; a.write != nil && !a.held {
			latch = append(latch, a)
		}
	}
	for i := 1; i < len(latch); i++ {
		for j := i; j > 0 && latch[j].name < latch[j-1].name; j-- {
			latch[j], latch[j-1] = latch[j-1], latch[j]
		}
	}

	var conflict *record
	for _, a := range latch {
		if !tryLatch(a.rec) {
			conflict = a.rec
			break
		}
		a.held = true // finish releases it
	}
	if conflict == nil {
		conflict = tx.torn()
	}
	if conflict != nil {
		tx.finish(false, conflict)
		return ErrConflict
	}
	for i := range tx.acc {
		if a := &tx.acc[i]; a.write != nil {
			a.rec.install(a.write)
		}
	}
	tx.finish(true, nil)
	return nil
}

// torn returns a touched record showing that the transaction's reads
// may not form one snapshot, or nil when they do: a record the
// transaction does not hold is latched by a committer that may be
// between installs, or a touched record has moved past the version
// read. The latch check must come first: a committer latches its whole
// write set before installing any of it, so once no latch is held,
// every install that a read observed has a sibling install that the
// version check sees.
func (tx *Tx) torn() *record {
	for i := range tx.acc {
		if a := &tx.acc[i]; !a.held {
			if !a.rec.mu.TryLock() {
				return a.rec
			}
			a.rec.mu.Unlock()
		}
	}
	for i := range tx.acc {
		if a := &tx.acc[i]; versionOf(a.rec.state.Load()) != a.seen {
			return a.rec
		}
	}
	return nil
}

// Abort releases the transaction's latches and discards its buffered
// writes. Aborting a finished transaction is a no-op.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.finish(false, nil)
}

// finish releases held latches, settles the commit/abort
// counters and estimator, and emits the audit event for
// security-relevant (typed) transactions.
func (tx *Tx) finish(committed bool, conflict *record) {
	sp := tx.sp
	for i := range tx.acc {
		if a := &tx.acc[i]; a.held {
			a.rec.mu.Unlock()
			a.held = false
		}
	}
	tx.done = true
	verb := "abort"
	if committed {
		verb = "commit"
		sp.stats.commits.Add(1)
		for i := range tx.acc {
			if tx.acc[i].rec.credit() {
				sp.stats.deescalations.Add(1)
			}
		}
	} else {
		sp.stats.aborts.Add(1)
		if conflict != nil && conflict.blame() {
			sp.stats.escalations.Add(1)
		}
	}
	if tx.typed {
		if l := sp.auditLog.Load(); l != nil && l.Enabled(audit.CatObject) {
			l.Emit(audit.Event{Cat: audit.CatObject, Verb: verb, App: tx.owner, Detail: tx.names()})
		}
	}
}

// names renders the footprint for audit details.
func (tx *Tx) names() string {
	parts := make([]string, len(tx.acc))
	for i := range tx.acc {
		parts[i] = tx.acc[i].name
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// footprint merges the transaction's touched names (plus the name
// that triggered a lock-order restart, which never made it into the
// access list) into predict, sorted and deduplicated.
func (tx *Tx) footprint(predict []string) []string {
	for i := range tx.acc {
		predict = append(predict, tx.acc[i].name)
	}
	if tx.restartName != "" {
		predict = append(predict, tx.restartName)
	}
	sort.Strings(predict)
	out := predict[:0]
	for i, n := range predict {
		if i == 0 || n != predict[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// backoff parks briefly between conflict retries; early retries only
// yield, persistent conflicts back off exponentially (capped).
func backoff(attempt int) {
	if attempt < 8 {
		runtime.Gosched()
		return
	}
	shift := attempt - 8
	if shift > 8 {
		shift = 8
	}
	time.Sleep(time.Microsecond << uint(shift))
}

// Atomically runs fn as one atomic transaction, retrying on conflict
// with backoff until it commits or fn fails. fn may run several
// times, so it must be free of side effects other than operations on
// the transaction; it must not call Commit or Abort itself. Any
// non-conflict error from fn aborts the transaction and is returned
// unchanged, provided the reads fn made still form one snapshot;
// otherwise the attempt is retried like a conflict.
//
// Under ModeLocking (and for escalated records under ModeAdaptive) an
// attempt that touches records out of ascending name order restarts
// with the discovered footprint pre-locked in sorted order, so
// transactions with stable footprints — the transfer shape — commit
// without aborting no matter how contended the records are.
func (s *Space) Atomically(owner int64, fn func(*Tx) error) error {
	tx := txPool.Get().(*Tx)
	tx.sp, tx.owner = s, owner
	defer tx.release()
	var predict []string
	for attempt := 0; ; attempt++ {
		tx.begin()
		tx.pessimistic = s.Mode() == ModeLocking
		if len(predict) > 0 {
			tx.prelock(predict)
		}
		err := fn(tx)
		if err == nil {
			if err = tx.Commit(); err == nil {
				return nil
			}
		} else if !tx.done && tx.torn() != nil {
			// fn failed on reads that straddle a concurrent commit;
			// its error describes no real state, so retry the
			// attempt instead of surfacing it.
			err = ErrConflict
		}
		retry := errors.Is(err, ErrConflict) || errors.Is(err, errRestart)
		if retry {
			predict = tx.footprint(predict)
		}
		tx.Abort() // no-op when Commit already finished the attempt
		if !retry {
			return err
		}
		backoff(attempt)
	}
}
