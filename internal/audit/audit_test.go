package audit

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestLog builds a log over a MemStore with small rings so tests
// can force overflow cheaply. No drainer runs; tests call Sync.
func newTestLog(t *testing.T, cfg Config) (*Log, *MemStore) {
	t.Helper()
	store := NewMemStore()
	cfg.Store = store
	return New(cfg), store
}

func TestDisabledCategoryIsInvisible(t *testing.T) {
	l, _ := newTestLog(t, Config{Mask: CatDeny})
	l.Emit(Event{Cat: CatShell, Verb: "command", Detail: "ls"})
	l.Sync()
	st := l.Stats()
	if st.Emitted != 0 || st.Records != 0 || st.Pending != 0 {
		t.Fatalf("disabled emission left traces: %+v", st)
	}
	if l.Enabled(CatShell) {
		t.Fatal("CatShell should read disabled")
	}
	if !l.Enabled(CatDeny) {
		t.Fatal("CatDeny should read enabled")
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Emit(Event{Cat: CatDeny, Verb: "deny"})
	if l.Enabled(CatDeny) {
		t.Fatal("nil log reported a category enabled")
	}
	if l.Mask() != 0 {
		t.Fatal("nil log reported a mask")
	}
}

func TestChainAppendQueryVerify(t *testing.T) {
	l, _ := newTestLog(t, Config{Mask: CatAll, SegmentRecords: 16})
	const n = 50
	for i := 0; i < n; i++ {
		l.Emit(Event{Cat: CatShell, Verb: "command", User: "alice", App: 7, Thread: int64(i % 3), Detail: fmt.Sprintf("cmd %d", i)})
	}
	l.Sync()

	recs, err := l.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("query returned %d records, want %d", len(recs), n)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("records out of order: seq %d after %d", recs[i].Seq, recs[i-1].Seq)
		}
	}

	res, err := l.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("fresh chain does not verify: %+v", res)
	}
	if res.Records != n {
		t.Fatalf("verify walked %d records, want %d", res.Records, n)
	}
	// 50 records / 16 per segment → 4 segments.
	if res.Segments != 4 {
		t.Fatalf("got %d segments, want 4", res.Segments)
	}
	if st := l.Stats(); st.Segments != 4 || st.Records != n {
		t.Fatalf("stats disagree: %+v", st)
	}
}

func TestQueryFilters(t *testing.T) {
	l, _ := newTestLog(t, Config{Mask: CatAll})
	l.Emit(Event{Cat: CatDeny, Verb: "deny", User: "alice", App: 1, Detail: "file /x read"})
	l.Emit(Event{Cat: CatDeny, Verb: "deny", User: "bob", App: 2, Detail: "file /y read"})
	l.Emit(Event{Cat: CatShell, Verb: "command", User: "alice", App: 1, Detail: "ls"})
	l.Emit(Event{Cat: CatNet, Verb: "connect", Detail: "localhost:80"})
	l.Sync()

	for _, tc := range []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{}, 4},
		{"by category", Query{Cats: CatDeny}, 2},
		{"by category union", Query{Cats: CatDeny | CatShell}, 3},
		{"by user", Query{User: "alice"}, 2},
		{"by user+cat", Query{User: "alice", Cats: CatDeny}, 1},
		{"by app", Query{App: 2}, 1},
		{"by verb", Query{Verb: "connect"}, 1},
		{"limit", Query{Limit: 2}, 2},
		{"no match", Query{User: "mallory"}, 0},
	} {
		recs, err := l.Query(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(recs) != tc.want {
			t.Fatalf("%s: got %d records, want %d", tc.name, len(recs), tc.want)
		}
	}

	// Limit keeps the LAST matches (tail semantics).
	recs, err := l.Query(Query{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Verb != "connect" {
		t.Fatalf("limit did not keep the tail: got %q", recs[0].Verb)
	}

	// Time bounds.
	all, _ := l.Query(Query{})
	mid := all[1].Time
	recs, _ = l.Query(Query{Since: mid})
	if len(recs) != 3 {
		t.Fatalf("since filter: got %d, want 3", len(recs))
	}
	recs, _ = l.Query(Query{Until: mid})
	if len(recs) != 2 {
		t.Fatalf("until filter: got %d, want 2", len(recs))
	}
}

func TestOverflowDropsOldestAndChainStillVerifies(t *testing.T) {
	// One shard of 8 slots; everything lands in it (Thread: 0).
	l, _ := newTestLog(t, Config{Mask: CatAll, Shards: 1, ShardCap: 8})
	const n = 30
	for i := 0; i < n; i++ {
		l.Emit(Event{Cat: CatShell, Verb: "command", Detail: fmt.Sprintf("cmd %d", i)})
	}
	st := l.Stats()
	if st.Dropped != n-8 {
		t.Fatalf("dropped %d, want %d", st.Dropped, n-8)
	}
	if st.Pending != 8 {
		t.Fatalf("pending %d, want 8", st.Pending)
	}
	l.Sync()

	// The survivors are the NEWEST 8 (drop-oldest), in order.
	recs, err := l.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("chained %d records, want 8", len(recs))
	}
	if recs[0].Detail != "cmd 22" || recs[7].Detail != "cmd 29" {
		t.Fatalf("wrong survivors: first %q last %q", recs[0].Detail, recs[7].Detail)
	}

	// Despite the sequence gap, the persisted chain verifies.
	res, err := l.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("chain with drops does not verify: %+v", res)
	}
	if st := l.Stats(); st.Categories[CatShell.index()].Dropped != n-8 {
		t.Fatalf("per-category drop counter wrong: %+v", st.Categories)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	l, store := newTestLog(t, Config{Mask: CatAll, SegmentRecords: 8})
	for i := 0; i < 20; i++ {
		l.Emit(Event{Cat: CatApp, Verb: "exec", User: "alice", Detail: fmt.Sprintf("app %d", i)})
	}
	l.Sync()
	if res, _ := l.Verify(); !res.OK {
		t.Fatalf("pristine chain must verify: %+v", res)
	}

	// Flip the payload of a record in the middle segment.
	name := segmentName(1)
	data, err := store.Read(name)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), "app 9", "app 0", 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found")
	}
	store.Put(name, []byte(tampered))

	res, err := l.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("verify missed the tampered record")
	}
	if res.BrokenSegment != name {
		t.Fatalf("broken link located in %q, want %q", res.BrokenSegment, name)
	}
	if res.BrokenLine != 2 { // the faulted batch's header is line 2 (after "!v2")
		t.Fatalf("broken link at line %d, want 2", res.BrokenLine)
	}
	if !strings.Contains(res.Reason, "root mismatch") {
		t.Fatalf("unexpected reason %q", res.Reason)
	}
	// The corruption is localized to its batch: exactly one fault,
	// naming batch 1 (seqs 9–16) — batches 0 and 2 still verify, so
	// the trail before AND after the tamper remains trustworthy.
	if len(res.Faults) != 1 {
		t.Fatalf("want 1 localized fault, got %+v", res.Faults)
	}
	f := res.Faults[0]
	if f.Batch != 1 || f.First != 9 || f.Last != 16 || f.Segment != name {
		t.Fatalf("fault not localized to batch 1 [9,16] in %s: %+v", name, f)
	}
	if res.Records != 20 {
		t.Fatalf("verify should still walk all 20 records, got %d", res.Records)
	}
}

func TestVerifyDetectsReorder(t *testing.T) {
	l, store := newTestLog(t, Config{Mask: CatAll, SegmentRecords: 64})
	for i := 0; i < 4; i++ {
		l.Emit(Event{Cat: CatNet, Verb: "listen", Detail: fmt.Sprintf("host:%d", i)})
	}
	l.Sync()
	name := segmentName(0)
	data, _ := store.Read(name)
	// Lines: "!v2", the batch header, then the leaf lines — swap two
	// leaves.
	lines := strings.SplitAfter(string(data), "\n")
	lines[2], lines[3] = lines[3], lines[2]
	store.Put(name, []byte(strings.Join(lines, "")))
	res, err := l.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("verify missed a reordered chain")
	}
}

func TestSubscribeFanoutAndDrops(t *testing.T) {
	l, _ := newTestLog(t, Config{Mask: CatAll})
	wide := l.Subscribe("wide", CatAll, 64)
	narrow := l.Subscribe("narrow", CatDeny, 64)
	tiny := l.Subscribe("tiny", CatAll, 1)

	for i := 0; i < 10; i++ {
		l.Emit(Event{Cat: CatShell, Verb: "command", Detail: fmt.Sprintf("c%d", i)})
	}
	l.Emit(Event{Cat: CatDeny, Verb: "deny", User: "bob"})
	l.Sync()

	if got := len(wide.C()); got != 11 {
		t.Fatalf("wide got %d records, want 11", got)
	}
	if got := len(narrow.C()); got != 1 {
		t.Fatalf("narrow got %d records, want 1", got)
	}
	rec := <-narrow.C()
	if rec.User != "bob" || rec.Cat != CatDeny {
		t.Fatalf("narrow saw wrong record: %+v", rec)
	}
	// tiny's queue holds 1; the other 10 deliveries were dropped.
	if tiny.Dropped() != 10 {
		t.Fatalf("tiny dropped %d, want 10", tiny.Dropped())
	}
	if st := l.Stats(); st.SubscriberDrops != 10 || st.Subscribers != 3 {
		t.Fatalf("stats disagree: %+v", st)
	}

	wide.Close()
	narrow.Close()
	tiny.Close()
	if st := l.Stats(); st.Subscribers != 0 {
		t.Fatalf("subscriptions leaked: %+v", st)
	}
	// Closed channel drains then reports closed.
	if _, ok := <-narrow.C(); ok {
		t.Fatal("closed subscription channel still delivering")
	}
}

// TestConcurrentEmitDrainSubscribeCancel is the subsystem's -race
// stress: many emitters across shards, a live drainer, and subscribers
// that cancel mid-stream, all concurrently.
func TestConcurrentEmitDrainSubscribeCancel(t *testing.T) {
	l, _ := newTestLog(t, Config{Mask: CatAll, Shards: 4, ShardCap: 256, SegmentRecords: 128, FlushInterval: time.Millisecond})
	stop := make(chan struct{})
	var drainer sync.WaitGroup
	drainer.Add(1)
	go func() {
		defer drainer.Done()
		l.Run(stop)
	}()

	const emitters = 8
	const perEmitter = 500
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				l.Emit(Event{Cat: CatShell, Verb: "command", Thread: int64(e), Detail: "x"})
			}
		}(e)
	}
	// Subscribers appear, consume a little, and cancel while the
	// drainer is fanning out.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sub := l.Subscribe(fmt.Sprintf("s%d", s), CatAll, 16)
			for i := 0; i < 50; i++ {
				select {
				case <-sub.C():
				case <-time.After(time.Millisecond):
				}
			}
			sub.Close()
		}(s)
	}
	wg.Wait()
	close(stop)
	drainer.Wait()

	st := l.Stats()
	if st.Pending != 0 {
		t.Fatalf("final drain left %d pending", st.Pending)
	}
	if st.Emitted != emitters*perEmitter {
		t.Fatalf("emitted %d, want %d", st.Emitted, emitters*perEmitter)
	}
	if st.Records+st.Dropped != st.Emitted {
		t.Fatalf("records(%d) + dropped(%d) != emitted(%d)", st.Records, st.Dropped, st.Emitted)
	}
	res, err := l.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("chain broken after concurrent stress: %+v", res)
	}
	if uint64(res.Records) != st.Records {
		t.Fatalf("verify walked %d, stats say %d", res.Records, st.Records)
	}
}

func TestEnableDisableMask(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	if l.Mask() != DefaultMask {
		t.Fatalf("default mask %v, want %v", l.Mask(), DefaultMask)
	}
	if l.Enabled(CatAccess) {
		t.Fatal("CatAccess must start disabled")
	}
	l.Enable(CatAccess)
	if !l.Enabled(CatAccess) {
		t.Fatal("Enable(CatAccess) not observed")
	}
	l.Disable(CatAccess | CatShell)
	if l.Enabled(CatAccess) || l.Enabled(CatShell) {
		t.Fatal("Disable not observed")
	}
	l.SetMask(CatDeny)
	if l.Mask() != CatDeny {
		t.Fatalf("SetMask: got %v", l.Mask())
	}
}

func TestParseCategoryAndString(t *testing.T) {
	for _, name := range CategoryNames() {
		c, err := ParseCategory(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.String() != name {
			t.Fatalf("round trip %q → %v", name, c)
		}
	}
	if c, err := ParseCategory("all"); err != nil || c != CatAll {
		t.Fatalf("all → %v, %v", c, err)
	}
	if _, err := ParseCategory("bogus"); err == nil {
		t.Fatal("bogus category accepted")
	}
	if got := (CatDeny | CatNet).String(); got != "deny,net" {
		t.Fatalf("mask string %q", got)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	// Hostile strings survive the line encoding.
	in := Record{
		Event: Event{
			Cat:    CatFile,
			Verb:   "open-denied",
			User:   "al\tice\n",
			App:    42,
			Thread: 9,
			Detail: "path \"with\"\tweird\nchars",
		},
		Seq:  7,
		Time: 123456789,
	}
	out, err := parseRecordLine(in.appendBody(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	l := New(Config{Mask: CatDeny, Store: NewMemStore()})
	ev := Event{Cat: CatAccess, Verb: "allow", Detail: "x"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Emit(ev)
	}
}

func BenchmarkEmitEnabledDrained(b *testing.B) {
	l := New(Config{Mask: CatAll, ShardCap: 4096, Store: NewMemStore()})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); l.Run(stop) }()
	ev := Event{Cat: CatShell, Verb: "command", User: "alice", Detail: "ls -l"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Thread = int64(i)
		l.Emit(ev)
	}
	b.StopTimer()
	close(stop)
	<-done
}

func BenchmarkEmitSaturated(b *testing.B) {
	// No drainer: every emission past the ring capacity drops-oldest.
	l := New(Config{Mask: CatAll, Shards: 1, ShardCap: 64, Store: NewMemStore()})
	ev := Event{Cat: CatShell, Verb: "command", Detail: "ls"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Emit(ev)
	}
}
