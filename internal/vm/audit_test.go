package vm

import (
	"strings"
	"testing"

	"mpj/internal/audit"
)

// TestThreadLifecycleAudit checks the kernel emission sites: thread
// spawn and exit, group destruction, and VM exit.
func TestThreadLifecycleAudit(t *testing.T) {
	v := New(Config{IdlePolicy: StayOnIdle, NoBootThreads: true})
	l := audit.New(audit.Config{Store: audit.NewMemStore(), Mask: audit.CatThread})
	v.SetAuditLog(l)

	g, err := v.NewGroup(v.MainGroup(), "workers")
	if err != nil {
		t.Fatal(err)
	}
	th, err := v.SpawnThread(ThreadSpec{Group: g, Name: "worker", Run: func(t *Thread) {}})
	if err != nil {
		t.Fatal(err)
	}
	th.Join()
	if err := g.Destroy(); err != nil {
		t.Fatal(err)
	}
	v.Exit(3)
	l.Sync()

	for _, want := range []struct {
		verb   string
		detail string
	}{
		{"spawn", "thread worker"},
		{"exit", "thread worker"},
		{"group-destroy", `group "workers"`},
		{"vm-exit", "exit code 3"},
	} {
		recs, err := l.Query(audit.Query{Cats: audit.CatThread, Verb: want.verb})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range recs {
			if strings.Contains(r.Detail, want.detail) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q record with detail %q in %+v", want.verb, want.detail, recs)
		}
	}

	// Spawn and exit must carry the thread's ID for correlation.
	recs, _ := l.Query(audit.Query{Verb: "spawn"})
	if len(recs) == 0 || recs[0].Thread != int64(th.ID()) {
		t.Fatalf("spawn record thread = %+v, want %d", recs, th.ID())
	}
}

// TestAppTagSlot checks the lock-free application-tag slot.
func TestAppTagSlot(t *testing.T) {
	v := New(Config{IdlePolicy: StayOnIdle, NoBootThreads: true})
	defer v.Exit(0)
	th, err := v.SpawnThread(ThreadSpec{Group: v.MainGroup(), Name: "t", Run: func(t *Thread) {
		<-t.StopChan()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if th.AppTag() != 0 {
		t.Fatalf("fresh thread app tag = %d, want 0", th.AppTag())
	}
	th.SetAppTag(42)
	if th.AppTag() != 42 {
		t.Fatalf("app tag = %d, want 42", th.AppTag())
	}
	th.Stop()
	th.Join()
}
