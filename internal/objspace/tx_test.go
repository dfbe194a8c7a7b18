package objspace

import (
	"errors"
	"fmt"
	"testing"
)

// bindBalances binds n accounts acct.0 .. acct.n-1, each holding
// balance.
func bindBalances(t *testing.T, s *Space, n, balance int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Bind(fmt.Sprintf("acct.%d", i), balance, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// transfer moves amount from one account to the other inside tx.
func transfer(tx *Tx, from, to string, amount int) error {
	fv, err := tx.Get(from)
	if err != nil {
		return err
	}
	tv, err := tx.Get(to)
	if err != nil {
		return err
	}
	if err := tx.Put(from, fv.(int)-amount, nil); err != nil {
		return err
	}
	return tx.Put(to, tv.(int)+amount, nil)
}

func TestTxCommitBasics(t *testing.T) {
	for _, mode := range []Mode{ModeAdaptive, ModeOCC, ModeLocking} {
		t.Run(mode.String(), func(t *testing.T) {
			s := New()
			s.SetMode(mode)
			bindBalances(t, s, 2, 100)
			if err := s.Atomically(7, func(tx *Tx) error {
				return transfer(tx, "acct.1", "acct.0", 30)
			}); err != nil {
				t.Fatal(err)
			}
			e0, err := s.Lookup("acct.0")
			if err != nil || e0.Object != 130 {
				t.Fatalf("acct.0 = %+v, %v", e0, err)
			}
			if e0.Owner != 7 {
				t.Fatalf("committed entry owner = %d", e0.Owner)
			}
			e1, _ := s.Lookup("acct.1")
			if e1.Object != 70 {
				t.Fatalf("acct.1 = %+v", e1)
			}
			st := s.TxStats()
			if st.Commits != 1 || st.Attempts != st.Commits+st.Aborts {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

func TestTxReadYourWrites(t *testing.T) {
	s := New()
	bindBalances(t, s, 1, 5)
	if err := s.Atomically(1, func(tx *Tx) error {
		if err := tx.Put("acct.0", 6, nil); err != nil {
			return err
		}
		v, err := tx.Get("acct.0")
		if err != nil {
			return err
		}
		if v != 6 {
			t.Fatalf("read-your-write = %v", v)
		}
		return tx.Put("acct.0", v.(int)+1, nil)
	}); err != nil {
		t.Fatal(err)
	}
	e, _ := s.Lookup("acct.0")
	if e.Object != 7 {
		t.Fatalf("final = %+v", e)
	}
}

func TestTxSnapshotIsolation(t *testing.T) {
	// A transaction's reads come from its first-touch snapshots: a
	// commit that lands in between is invisible to it, and invalidates
	// it at commit time.
	s := New()
	bindBalances(t, s, 1, 1)
	tx := s.Begin(1)
	v, err := tx.Get("acct.0")
	if err != nil || v != 1 {
		t.Fatalf("get = %v, %v", v, err)
	}
	if err := s.Rebind("acct.0", 99, nil, 2); err != nil {
		t.Fatal(err)
	}
	v, err = tx.Get("acct.0")
	if err != nil || v != 1 {
		t.Fatalf("snapshot read after external commit = %v, %v", v, err)
	}
	if err := tx.Put("acct.0", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit against stale read: %v", err)
	}
	e, _ := s.Lookup("acct.0")
	if e.Object != 99 {
		t.Fatalf("aborted tx took effect: %+v", e)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("commit after finish: %v", err)
	}
}

func TestTxReadOnlyValidation(t *testing.T) {
	// A read-only transaction is serializable too: its commit
	// validates that the snapshot it observed is still current.
	s := New()
	bindBalances(t, s, 2, 10)
	tx := s.Begin(1)
	if _, err := tx.Get("acct.0"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get("acct.1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebind("acct.1", 11, nil, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale read-only commit: %v", err)
	}
	tx2 := s.Begin(1)
	if _, err := tx2.Get("acct.0"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("clean read-only commit: %v", err)
	}
}

func TestTxReadOnlyCommitRejectsTornSnapshot(t *testing.T) {
	// A committer latches its whole write set, then installs one record
	// at a time. A read-only transaction that reads between the two
	// installs sees acct.0 new and acct.1 old, and neither version moves
	// before it commits: only the latch check can refuse that snapshot.
	s := New()
	bindBalances(t, s, 2, 1)
	a := s.shardFor("acct.0").get("acct.0")
	b := s.shardFor("acct.1").get("acct.1")
	a.mu.Lock()
	b.mu.Lock()
	a.install(&Entry{Name: "acct.0", Object: 2, Owner: 2})

	tx := s.Begin(1)
	va, err := tx.Get("acct.0")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := tx.Get("acct.1")
	if err != nil {
		t.Fatal(err)
	}
	if va != 2 || vb != 1 {
		t.Fatalf("mid-install reads = %v, %v; want 2, 1", va, vb)
	}
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("read-only commit of a torn snapshot: %v", err)
	}

	b.install(&Entry{Name: "acct.1", Object: 2, Owner: 2})
	b.mu.Unlock()
	a.mu.Unlock()
	tx = s.Begin(1)
	va, _ = tx.Get("acct.0")
	vb, _ = tx.Get("acct.1")
	if err := tx.Commit(); err != nil || va != 2 || vb != 2 {
		t.Fatalf("read-only commit after the install = %v (reads %v, %v)", err, va, vb)
	}
	if st := s.TxStats(); st.Attempts != st.Commits+st.Aborts || st.Aborts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTxNotBoundAndUnbind(t *testing.T) {
	s := New()
	bindBalances(t, s, 1, 1)
	if err := s.Atomically(1, func(tx *Tx) error {
		_, err := tx.Get("ghost")
		return err
	}); !errors.Is(err, ErrNotBound) {
		t.Fatalf("get unbound: %v", err)
	}
	if err := s.Atomically(1, func(tx *Tx) error {
		return tx.Put("ghost", 1, nil)
	}); !errors.Is(err, ErrNotBound) {
		t.Fatalf("put unbound: %v", err)
	}
	// Unbinding mid-flight invalidates the transaction; the retry then
	// observes ErrNotBound.
	tx := s.Begin(1)
	if _, err := tx.Get("acct.0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unbind("acct.0"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("acct.0", 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit against unbound record: %v", err)
	}
}

func TestTxTypeConfusionInsideTx(t *testing.T) {
	_, app1, app2 := loaders(t)
	c1, err := app1.Load(nil, "shared.Message")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := app2.Load(nil, "shared.Message")
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	if err := s.Bind("msg", "hello", c1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("plain", 1, nil, 1); err != nil {
		t.Fatal(err)
	}
	// Same loader: sound, and the typed read participates in the
	// atomic unit with the untyped write.
	if err := s.Atomically(2, func(tx *Tx) error {
		v, err := tx.GetAs("msg", c1)
		if err != nil {
			return err
		}
		return tx.Put("plain", fmt.Sprintf("saw %v", v), nil)
	}); err != nil {
		t.Fatal(err)
	}
	// Cross-loader: the confusion error aborts the whole transaction —
	// no partial effects.
	err = s.Atomically(2, func(tx *Tx) error {
		if err := tx.Put("plain", "must not land", nil); err != nil {
			return err
		}
		_, err := tx.GetAs("msg", c2)
		return err
	})
	if !errors.Is(err, ErrTypeConfusion) {
		t.Fatalf("cross-loader GetAs: %v", err)
	}
	e, _ := s.Lookup("plain")
	if e.Object != "saw hello" {
		t.Fatalf("aborted typed tx leaked a write: %+v", e)
	}
	// GetAs sees the transaction's own pending typed write.
	if err := s.Atomically(3, func(tx *Tx) error {
		if err := tx.Put("msg", "rewritten", c2); err != nil {
			return err
		}
		_, err := tx.GetAs("msg", c1)
		if !errors.Is(err, ErrTypeConfusion) {
			t.Fatalf("pending-write GetAs with other loader: %v", err)
		}
		v, err := tx.GetAs("msg", c2)
		if err != nil || v != "rewritten" {
			t.Fatalf("pending-write GetAs = %v, %v", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTxEscalationAndDeescalation(t *testing.T) {
	s := New() // ModeAdaptive
	bindBalances(t, s, 1, 0)
	rec := s.shardFor("acct.0").get("acct.0")

	// Force repeated conflicts on the record: read it, commit a
	// conflicting external write, then watch the commit abort.
	aborts := 0
	for !rec.hotNow() {
		tx := s.Begin(1)
		if _, err := tx.Get("acct.0"); err != nil {
			t.Fatal(err)
		}
		if err := s.Rebind("acct.0", aborts, nil, 2); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put("acct.0", -1, nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); !errors.Is(err, ErrConflict) {
			t.Fatalf("expected conflict, got %v", err)
		}
		if aborts++; aborts > 100 {
			t.Fatal("record never escalated")
		}
	}
	st := s.TxStats()
	if st.Escalations == 0 || st.HotRecords != 1 {
		t.Fatalf("after escalation: %+v", st)
	}

	// Escalated: transactions now lock the record at first access, so
	// uncontended commits succeed and decay the estimator back down.
	commits := 0
	for rec.hotNow() {
		if err := s.Atomically(1, func(tx *Tx) error {
			v, err := tx.Get("acct.0")
			if err != nil {
				return err
			}
			_ = v
			return tx.Put("acct.0", commits, nil)
		}); err != nil {
			t.Fatal(err)
		}
		if commits++; commits > 1000 {
			t.Fatal("record never de-escalated")
		}
	}
	st = s.TxStats()
	if st.Deescalations == 0 || st.HotRecords != 0 {
		t.Fatalf("after de-escalation: %+v", st)
	}
	if st.Attempts != st.Commits+st.Aborts {
		t.Fatalf("conservation: %+v", st)
	}
}

func TestTxLockingModeOrderRestart(t *testing.T) {
	// In pure-locking mode a transaction that touches records against
	// ascending name order restarts transparently with its footprint
	// pre-locked; the caller only sees the final commit.
	s := New()
	s.SetMode(ModeLocking)
	bindBalances(t, s, 3, 100)
	if err := s.Atomically(1, func(tx *Tx) error {
		// acct.2 first, then acct.0: order violation on first attempt.
		return transfer(tx, "acct.2", "acct.0", 10)
	}); err != nil {
		t.Fatal(err)
	}
	e0, _ := s.Lookup("acct.0")
	e2, _ := s.Lookup("acct.2")
	if e0.Object != 110 || e2.Object != 90 {
		t.Fatalf("balances = %v / %v", e0.Object, e2.Object)
	}
	st := s.TxStats()
	if st.Attempts != st.Commits+st.Aborts {
		t.Fatalf("conservation: %+v", st)
	}
	if st.Aborts == 0 {
		t.Fatalf("expected a lock-order restart abort: %+v", st)
	}
}

func TestTxStatsConservation(t *testing.T) {
	s := New()
	bindBalances(t, s, 4, 25)
	for i := 0; i < 100; i++ {
		from := fmt.Sprintf("acct.%d", i%4)
		to := fmt.Sprintf("acct.%d", (i+1)%4)
		if err := s.Atomically(1, func(tx *Tx) error {
			return transfer(tx, from, to, 1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	sum := 0
	for _, n := range s.Names() {
		e, err := s.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		sum += e.Object.(int)
	}
	if sum != 100 {
		t.Fatalf("balance sum = %d", sum)
	}
	st := s.TxStats()
	if st.Attempts != st.Commits+st.Aborts {
		t.Fatalf("conservation: %+v", st)
	}
}
