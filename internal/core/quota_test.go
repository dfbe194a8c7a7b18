package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mpj/internal/audit"
	"mpj/internal/events"
	"mpj/internal/vm"
)

// quotaPlatform boots a platform with the given quotas and the alice /
// bob accounts.
func quotaPlatform(t *testing.T, q QuotaConfig) *Platform {
	t.Helper()
	return quotaPlatformWith(t, Config{Name: "quota", Quotas: q})
}

// quotaPlatformWith boots a platform from cfg with the alice / bob
// accounts.
func quotaPlatformWith(t *testing.T, cfg Config) *Platform {
	t.Helper()
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	for _, acc := range []struct{ name, pass string }{
		{"alice", "wonderland"},
		{"bob", "builder"},
	} {
		if _, err := p.AddUser(acc.name, acc.pass); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestAppQuotaPerUserLimit verifies the concurrent-application cap: a
// user at the limit is rejected, another user is not, and finishing an
// application frees the slot.
func TestAppQuotaPerUserLimit(t *testing.T) {
	p := quotaPlatform(t, QuotaConfig{MaxAppsPerUser: 2})
	registerProgram(t, p, "hold", func(ctx *Context, args []string) int {
		<-ctx.Thread().StopChan()
		return 0
	})
	alice := userByName(t, p, "alice")
	bob := userByName(t, p, "bob")

	a1, err := p.Exec(ExecSpec{Program: "hold", User: alice})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(ExecSpec{Program: "hold", User: alice}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(ExecSpec{Program: "hold", User: alice}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third alice app: err = %v, want ErrQuotaExceeded", err)
	}
	// Quotas are per user: bob is unaffected by alice's saturation.
	if _, err := p.Exec(ExecSpec{Program: "hold", User: bob}); err != nil {
		t.Fatalf("bob's launch rejected: %v", err)
	}

	// Finishing one of alice's applications frees her slot.
	a1.RequestExit(0)
	a1.WaitFor()
	if _, err := p.Exec(ExecSpec{Program: "hold", User: alice}); err != nil {
		t.Fatalf("relaunch after exit rejected: %v", err)
	}

	st := p.QuotaStats()
	if st.AppsAttempted != st.AppsAdmitted+st.AppsRejected {
		t.Fatalf("conservation violated: %+v", st)
	}
	if st.AppsRejected != 1 || st.AppsAdmitted != 4 {
		t.Fatalf("stats = %+v, want 4 admitted / 1 rejected", st)
	}
}

// TestThreadQuotaInsideApplication verifies the concurrent-thread cap
// as seen from inside an application: main plus two workers fit a
// limit of three; the next spawn is rejected; finished workers refund
// their charges.
func TestThreadQuotaInsideApplication(t *testing.T) {
	p := quotaPlatform(t, QuotaConfig{MaxThreadsPerUser: 3})
	alice := userByName(t, p, "alice")

	result := make(chan error, 1)
	registerProgram(t, p, "spawner", func(ctx *Context, args []string) int {
		gate := make(chan struct{})
		var workers []*vm.Thread
		for i := 0; i < 2; i++ {
			th, err := ctx.SpawnThread("worker", false, func(*Context) { <-gate })
			if err != nil {
				result <- err
				return 1
			}
			workers = append(workers, th)
		}
		// 3 of 3 slots held (main + 2 workers): the next spawn must be
		// rejected with the quota error.
		_, err := ctx.SpawnThread("extra", false, func(*Context) {})
		if !errors.Is(err, ErrQuotaExceeded) {
			result <- err
			return 1
		}
		close(gate)
		for _, th := range workers {
			th.Join()
		}
		// Workers finished: their charges are back.
		if _, err := ctx.SpawnThread("late", false, func(*Context) {}); err != nil {
			result <- err
			return 1
		}
		result <- nil
		return 0
	})

	if code, err := p.ExecWait(ExecSpec{Program: "spawner", User: alice}); err != nil || code != 0 {
		t.Fatalf("spawner: code=%d err=%v (detail: %v)", code, err, <-result)
	}
	if err := <-result; err != nil {
		t.Fatalf("in-app expectation failed: %v", err)
	}
	st := p.QuotaStats()
	if st.ThreadsAttempted != st.ThreadsAdmitted+st.ThreadsRejected {
		t.Fatalf("conservation violated: %+v", st)
	}
	if st.ThreadsRejected != 1 {
		t.Fatalf("threads rejected = %d, want 1", st.ThreadsRejected)
	}
}

// TestEventQuotaBackpressure verifies the queued-event cap: with the
// dispatcher wedged, a user's undelivered events are bounded; once the
// dispatcher drains, posting works again.
func TestEventQuotaBackpressure(t *testing.T) {
	const limit = 4
	p := quotaPlatform(t, QuotaConfig{MaxQueuedEventsPerUser: limit})
	p.EnableDisplay(events.PerAppDispatcher)
	alice := userByName(t, p, "alice")

	winc := make(chan events.WindowID, 1)
	gate := make(chan struct{})
	registerProgram(t, p, "ui", func(ctx *Context, args []string) int {
		w, err := ctx.OpenWindow("ui")
		if err != nil {
			t.Errorf("open window: %v", err)
			return 1
		}
		if err := w.AddListener("b", func(*vm.Thread, events.Event) { <-gate }); err != nil {
			t.Errorf("add listener: %v", err)
			return 1
		}
		winc <- w.ID()
		<-ctx.Thread().StopChan()
		return 0
	})
	app, err := p.Exec(ExecSpec{Program: "ui", User: alice})
	if err != nil {
		t.Fatal(err)
	}
	var win events.WindowID
	select {
	case win = <-winc:
	case <-time.After(5 * time.Second):
		t.Fatal("window never opened")
	}

	// Every event stays charged until its dispatch completes, and the
	// listener blocks the dispatcher on the first one — so exactly
	// `limit` posts are admitted no matter how far dispatch got.
	display := p.Display()
	for i := 0; i < limit; i++ {
		if err := display.Click(win, "b"); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if err := display.Click(win, "b"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("post over limit: err = %v, want ErrQuotaExceeded", err)
	}

	// Unwedge the dispatcher; the charges drain and posting resumes.
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := display.Click(win, "b"); err == nil {
			break
		} else if !errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("post after drain: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("event charges never drained")
		}
		time.Sleep(time.Millisecond)
	}

	app.RequestExit(0)
	app.WaitFor()
	// Destruction settles any stragglers: alice's ledger is empty.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, _, evs := p.quotas.liveFor("alice"); evs == 0 {
			break
		}
		if time.Now().After(deadline) {
			_, _, evs := p.quotas.liveFor("alice")
			t.Fatalf("residual event charges = %d, want 0", evs)
		}
		time.Sleep(time.Millisecond)
	}

	st := p.QuotaStats()
	if st.EventsAttempted != st.EventsAdmitted+st.EventsRejected {
		t.Fatalf("conservation violated: %+v", st)
	}
	if st.EventsRejected == 0 {
		t.Fatal("no event rejection recorded")
	}
}

// TestQuotaTableUnit exercises the ledger directly: unlimited
// dimensions never reject, settleApp refunds residual event charges,
// and unledgered owners pass through.
func TestQuotaTableUnit(t *testing.T) {
	q := newQuotaTable(QuotaConfig{MaxAppsPerUser: 1, MaxQueuedEventsPerUser: 10})

	if err := q.admitApp(1, "u"); err != nil {
		t.Fatal(err)
	}
	if err := q.admitApp(2, "u"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second app: err = %v", err)
	}
	// MaxThreadsPerUser == 0: unlimited.
	for i := 0; i < 100; i++ {
		release, err := q.admitThread(1)
		if err != nil {
			t.Fatalf("thread %d rejected with unlimited quota: %v", i, err)
		}
		release()
	}
	// Unledgered application: no charge, no error.
	if release, err := q.admitThread(99); err != nil || release != nil {
		t.Fatalf("unledgered admitThread: release non-nil = %v, err = %v", release != nil, err)
	}
	if err := q.AdmitEvents(events.OwnerID(99), 5); err != nil {
		t.Fatalf("unledgered AdmitEvents: %v", err)
	}

	// Charge events and let settleApp refund what was never released.
	if err := q.AdmitEvents(events.OwnerID(1), 7); err != nil {
		t.Fatal(err)
	}
	q.ReleaseEvents(events.OwnerID(1), 2)
	q.releaseApp(1)
	q.settleApp(1)
	if apps, threads, evs := q.liveFor("u"); apps != 0 || threads != 0 || evs != 0 {
		t.Fatalf("post-settle live = (%d,%d,%d), want zero", apps, threads, evs)
	}
	// After settling, the slot is free again.
	if err := q.admitApp(3, "u"); err != nil {
		t.Fatalf("slot not freed: %v", err)
	}
}

// TestAuditQuotaBackpressure verifies audit-backlog admission control:
// a user over MaxPendingAuditPerUser has further records dropped at
// emission (audit.Stats.Degraded), the edge into backpressure is
// itself audited as a kernel-attributed CatApp event, other users are
// unaffected, and committing a batch refunds the charges.
func TestAuditQuotaBackpressure(t *testing.T) {
	// The drainer holds a partial batch for MerkleWait before it
	// commits it and refunds the charges. An hour-long wait keeps it
	// from refunding mid-storm, so the storm's counts are exact; the
	// explicit Syncs below still commit at once.
	p := quotaPlatformWith(t, Config{Name: "quota",
		Quotas:          QuotaConfig{MaxPendingAuditPerUser: 4},
		AuditMerkleWait: time.Hour})
	log := p.Audit()

	// Storm: 20 alice-attributed denials back to back. Nothing commits
	// during it, so exactly 4 are admitted and 16 rejected.
	for i := 0; i < 20; i++ {
		log.Emit(audit.Event{Cat: audit.CatDeny, Verb: "deny", User: "alice", Detail: "file /etc/shadow"})
	}
	// Bob has his own counter.
	log.Emit(audit.Event{Cat: audit.CatDeny, Verb: "deny", User: "bob", Detail: "file /etc/shadow"})

	qs := p.QuotaStats()
	if qs.AuditAttempted != 21 {
		t.Fatalf("audit attempts = %d, want 21", qs.AuditAttempted)
	}
	if qs.AuditRejected != 16 || qs.AuditAdmitted+qs.AuditRejected != qs.AuditAttempted {
		t.Fatalf("quota stats = %+v, want 16 of 21 attempts rejected", qs)
	}
	as := log.Stats()
	if int64(as.Degraded) != qs.AuditRejected {
		t.Fatalf("audit degraded %d != quota rejected %d", as.Degraded, qs.AuditRejected)
	}
	if as.Records+as.Dropped+uint64(as.Pending) != as.Emitted {
		t.Fatalf("audit conservation broken: %+v", as)
	}

	// The transition into backpressure left a CatApp trace, attributed
	// to the kernel (empty user) so it was not itself quota-gated.
	log.Sync()
	if as = log.Stats(); as.Records+as.Dropped != as.Emitted {
		t.Fatalf("audit conservation broken after drain: %+v", as)
	}
	recs, err := log.Query(audit.Query{Cats: audit.CatApp, Verb: "quota-exceeded"})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, r := range recs {
		if strings.Contains(r.Detail, "audit backlog user=alice") {
			found++
			if r.User != "" {
				t.Fatalf("backpressure notice attributed to %q, want kernel", r.User)
			}
		}
	}
	if found == 0 {
		t.Fatalf("no backpressure notice in %d CatApp records", len(recs))
	}

	// The committed batch refunded alice's pending charges: she can
	// emit again.
	before := log.Stats().Records
	log.Emit(audit.Event{Cat: audit.CatDeny, Verb: "deny", User: "alice", Detail: "again"})
	log.Sync()
	if after := log.Stats().Records; after != before+1 {
		t.Fatalf("post-refund emission not committed: %d -> %d", before, after)
	}
}
