package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"mpj/internal/events"
)

// ErrQuotaExceeded is returned when a per-user admission quota would be
// exceeded — by Exec (concurrent applications), SpawnThread (concurrent
// threads), or the display server's Post (queued events).
var ErrQuotaExceeded = errors.New("core: per-user quota exceeded")

// QuotaConfig sets the per-user admission quotas. Zero means unlimited
// for that dimension; with all dimensions zero no admission state is
// kept at all and the launch/spawn/post fast paths are untouched.
//
// Quotas are charged to the application's launch-time user (a later
// setUser does not move existing charges) — the accounting question is
// "who asked for this resource", not "who runs it now".
type QuotaConfig struct {
	// MaxAppsPerUser bounds a user's concurrently live applications.
	MaxAppsPerUser int
	// MaxThreadsPerUser bounds a user's concurrently live threads
	// (every thread in an application's group counts: main, spawned,
	// event dispatchers).
	MaxThreadsPerUser int
	// MaxQueuedEventsPerUser bounds undelivered UI events across all of
	// a user's application event queues.
	MaxQueuedEventsPerUser int
	// MaxPendingAuditPerUser bounds a user's audit records sitting in
	// the emission rings awaiting a Merkle batch commit. Past the bound
	// further records from that user are dropped at emission (counted
	// as Degraded in audit.Stats) instead of displacing other users'
	// evidence — audit backpressure as admission control.
	MaxPendingAuditPerUser int
}

func (q QuotaConfig) enabled() bool {
	return q.MaxAppsPerUser > 0 || q.MaxThreadsPerUser > 0 ||
		q.MaxQueuedEventsPerUser > 0 || q.MaxPendingAuditPerUser > 0
}

// QuotaStats reports cumulative admission decisions per dimension.
// Conservation invariant per dimension: Admitted + Rejected ==
// Attempted.
type QuotaStats struct {
	AppsAttempted, AppsAdmitted, AppsRejected          int64
	ThreadsAttempted, ThreadsAdmitted, ThreadsRejected int64
	EventsAttempted, EventsAdmitted, EventsRejected    int64
	AuditAttempted, AuditAdmitted, AuditRejected       int64
}

// userQuota holds one user's live-resource counters.
type userQuota struct {
	apps    atomic.Int64
	threads atomic.Int64
	events  atomic.Int64
	// auditPending counts the user's audit records admitted to the
	// emission rings but not yet committed to a Merkle batch;
	// auditRejecting latches while the user is over quota so the
	// transition into backpressure is audited once, not once per
	// rejected record.
	auditPending   atomic.Int64
	auditRejecting atomic.Bool
}

// appCharge links an application to the userQuota its resources are
// charged to, with a per-app event counter so that destroy can settle
// any stragglers exactly (see settleApp).
type appCharge struct {
	uq     *userQuota
	events atomic.Int64
}

// quotaTable is the platform's admission ledger: per-user counters
// (created once per user name, never removed) and per-application
// charge records. All counting is atomic; the mutex only serializes
// entry creation.
type quotaTable struct {
	cfg QuotaConfig

	mu    sync.Mutex
	users map[string]*userQuota

	apps sync.Map // AppID -> *appCharge

	stats struct {
		appsAttempted, appsAdmitted, appsRejected          atomic.Int64
		threadsAttempted, threadsAdmitted, threadsRejected atomic.Int64
		eventsAttempted, eventsAdmitted, eventsRejected    atomic.Int64
		auditAttempted, auditAdmitted, auditRejected       atomic.Int64
	}
}

func newQuotaTable(cfg QuotaConfig) *quotaTable {
	return &quotaTable{cfg: cfg, users: make(map[string]*userQuota)}
}

// userEntry returns (creating if needed) the user's counter block.
func (q *quotaTable) userEntry(name string) *userQuota {
	q.mu.Lock()
	uq := q.users[name]
	if uq == nil {
		uq = &userQuota{}
		q.users[name] = uq
	}
	q.mu.Unlock()
	return uq
}

// tryAcquire bumps counter if the result stays within limit (0 =
// unlimited). Lock-free CAS loop.
func tryAcquire(counter *atomic.Int64, limit int64, n int64) bool {
	for {
		cur := counter.Load()
		if limit > 0 && cur+n > limit {
			return false
		}
		if counter.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// admitApp charges one live application to the user; on success the
// application's charge record is installed under id.
func (q *quotaTable) admitApp(id AppID, userName string) error {
	q.stats.appsAttempted.Add(1)
	uq := q.userEntry(userName)
	if !tryAcquire(&uq.apps, int64(q.cfg.MaxAppsPerUser), 1) {
		q.stats.appsRejected.Add(1)
		return ErrQuotaExceeded
	}
	q.stats.appsAdmitted.Add(1)
	q.apps.Store(id, &appCharge{uq: uq})
	return nil
}

// releaseApp returns the application charge itself; event stragglers
// are settled separately by settleApp once the dispatcher has drained.
func (q *quotaTable) releaseApp(id AppID) {
	v, ok := q.apps.Load(id)
	if !ok {
		return
	}
	v.(*appCharge).uq.apps.Add(-1)
}

// settleApp removes the application's charge record and refunds any
// event charges the dispatcher never released (e.g. its drain timed
// out). Call after teardown has run the display cleanups.
func (q *quotaTable) settleApp(id AppID) {
	v, ok := q.apps.LoadAndDelete(id)
	if !ok {
		return
	}
	c := v.(*appCharge)
	if residual := c.events.Swap(0); residual > 0 {
		c.uq.events.Add(-residual)
	}
}

// admitThread charges one live thread to the application's user and
// returns the matching release, or ErrQuotaExceeded.
func (q *quotaTable) admitThread(id AppID) (func(), error) {
	v, ok := q.apps.Load(id)
	if !ok {
		// Application unknown to the ledger (already settled, or quotas
		// were enabled mid-flight): nothing to charge.
		return nil, nil
	}
	uq := v.(*appCharge).uq
	q.stats.threadsAttempted.Add(1)
	if !tryAcquire(&uq.threads, int64(q.cfg.MaxThreadsPerUser), 1) {
		q.stats.threadsRejected.Add(1)
		return nil, ErrQuotaExceeded
	}
	q.stats.threadsAdmitted.Add(1)
	return func() { uq.threads.Add(-1) }, nil
}

// AdmitEvents implements events.Admission: charge n queued events to
// the owning application's user.
func (q *quotaTable) AdmitEvents(owner events.OwnerID, n int) error {
	v, ok := q.apps.Load(AppID(owner))
	if !ok {
		return nil // not a ledgered application (system-owned window)
	}
	c := v.(*appCharge)
	q.stats.eventsAttempted.Add(int64(n))
	if !tryAcquire(&c.uq.events, int64(q.cfg.MaxQueuedEventsPerUser), int64(n)) {
		q.stats.eventsRejected.Add(int64(n))
		return ErrQuotaExceeded
	}
	q.stats.eventsAdmitted.Add(int64(n))
	c.events.Add(int64(n))
	return nil
}

// ReleaseEvents implements events.Admission: n events left the queue.
func (q *quotaTable) ReleaseEvents(owner events.OwnerID, n int) {
	v, ok := q.apps.Load(AppID(owner))
	if !ok {
		return // already settled by settleApp
	}
	c := v.(*appCharge)
	c.events.Add(-int64(n))
	c.uq.events.Add(-int64(n))
}

// admitAuditRecord charges one pending audit record to the user.
// transitioned is true exactly when this rejection tipped the user
// from admitting into rejecting — the caller audits that edge once.
func (q *quotaTable) admitAuditRecord(userName string) (ok, transitioned bool) {
	limit := int64(q.cfg.MaxPendingAuditPerUser)
	if limit <= 0 {
		return true, false
	}
	q.stats.auditAttempted.Add(1)
	uq := q.userEntry(userName)
	if !tryAcquire(&uq.auditPending, limit, 1) {
		q.stats.auditRejected.Add(1)
		return false, uq.auditRejecting.CompareAndSwap(false, true)
	}
	q.stats.auditAdmitted.Add(1)
	uq.auditRejecting.Store(false)
	return true, false
}

// releaseAuditRecords returns n pending-record charges after the
// drainer committed (or overflow-dropped) them. Clamped at zero: a
// quota enabled mid-flight may see releases for records it never
// charged.
func (q *quotaTable) releaseAuditRecords(userName string, n int) {
	uq := q.userEntry(userName)
	for {
		cur := uq.auditPending.Load()
		next := cur - int64(n)
		if next < 0 {
			next = 0
		}
		if uq.auditPending.CompareAndSwap(cur, next) {
			return
		}
	}
}

// snapshot returns the cumulative admission stats.
func (q *quotaTable) snapshot() QuotaStats {
	return QuotaStats{
		AppsAttempted: q.stats.appsAttempted.Load(),
		AppsAdmitted:  q.stats.appsAdmitted.Load(),
		AppsRejected:  q.stats.appsRejected.Load(),

		ThreadsAttempted: q.stats.threadsAttempted.Load(),
		ThreadsAdmitted:  q.stats.threadsAdmitted.Load(),
		ThreadsRejected:  q.stats.threadsRejected.Load(),

		EventsAttempted: q.stats.eventsAttempted.Load(),
		EventsAdmitted:  q.stats.eventsAdmitted.Load(),
		EventsRejected:  q.stats.eventsRejected.Load(),

		AuditAttempted: q.stats.auditAttempted.Load(),
		AuditAdmitted:  q.stats.auditAdmitted.Load(),
		AuditRejected:  q.stats.auditRejected.Load(),
	}
}

// liveFor reports the user's current live counts (apps, threads,
// queued events) — diagnostic/test accessor.
func (q *quotaTable) liveFor(userName string) (apps, threads, evs int64) {
	q.mu.Lock()
	uq := q.users[userName]
	q.mu.Unlock()
	if uq == nil {
		return 0, 0, 0
	}
	return uq.apps.Load(), uq.threads.Load(), uq.events.Load()
}
