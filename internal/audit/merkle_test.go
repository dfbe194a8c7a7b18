package audit

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock returns a deterministic, strictly advancing clock.
func fixedClock() func() time.Time {
	base := time.Unix(1_700_000_000, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Microsecond)
	}
}

// emitN emits n CatShell records on one log.
func emitN(l *Log, n int) {
	for i := 0; i < n; i++ {
		l.Emit(Event{Cat: CatShell, Verb: "command", User: "alice", App: 7, Thread: int64(i % 5), Detail: fmt.Sprintf("cmd %d", i)})
	}
}

func TestProveVerifyProofRoundTrip(t *testing.T) {
	// Sweep batch shapes: single leaf, partial group, exactly one
	// group, multi-group, multi-level, and count not divisible by the
	// fan-out.
	for _, n := range []int{1, 3, 8, 9, 64, 65, 200} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			l, _ := newTestLog(t, Config{Mask: CatAll, MerkleBatch: 256, SegmentRecords: 512, Clock: fixedClock()})
			emitN(l, n)
			l.Sync()
			for seq := uint64(1); seq <= uint64(n); seq++ {
				p, err := l.Prove(seq)
				if err != nil {
					t.Fatalf("Prove(%d): %v", seq, err)
				}
				if err := VerifyProof(p); err != nil {
					t.Fatalf("VerifyProof(seq %d): %v", seq, err)
				}
				rec, err := p.Record()
				if err != nil || rec.Seq != seq {
					t.Fatalf("proof record: %+v, %v", rec, err)
				}
				// The proof's chain value must anchor to the log's
				// published head when it is the newest batch.
				if p.Batch == int(l.Stats().Batches)-1 && p.Chain != l.Stats().LastChain {
					t.Fatalf("newest batch's proof chain %s != published head %s", p.Chain, l.Stats().LastChain)
				}
			}
		})
	}
}

func TestProofHashCountIsLogarithmic(t *testing.T) {
	l, _ := newTestLog(t, Config{Mask: CatAll, MerkleBatch: 256, SegmentRecords: 512})
	emitN(l, 256)
	l.Sync()
	p, err := l.Prove(100)
	if err != nil {
		t.Fatal(err)
	}
	// 256 leaves → 32 groups → 4 → 1: one group hash, two interior
	// levels, one chain link = 4 hashes. log₈(256) ≈ 2.67.
	if p.Hashes() != 4 {
		t.Fatalf("verifying a 256-record batch proof takes %d hashes, want 4", p.Hashes())
	}
	if len(p.Group) != merkleFanOut {
		t.Fatalf("leaf group has %d lines, want %d", len(p.Group), merkleFanOut)
	}
}

func TestForgedProofsRejected(t *testing.T) {
	l, _ := newTestLog(t, Config{Mask: CatAll, MerkleBatch: 64, SegmentRecords: 512})
	emitN(l, 64)
	l.Sync()
	fresh := func() Proof {
		p, err := l.Prove(20)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := VerifyProof(fresh()); err != nil {
		t.Fatalf("pristine proof rejected: %v", err)
	}
	for name, forge := range map[string]func(*Proof){
		"claimed seq": func(p *Proof) { p.Seq = 21 },
		"record payload": func(p *Proof) {
			p.Group[p.GroupPos] = strings.Replace(p.Group[p.GroupPos], "cmd 19", "cmd 99", 1)
		},
		"neighbour leaf": func(p *Proof) {
			i := (p.GroupPos + 1) % len(p.Group)
			p.Group[i] = strings.Replace(p.Group[i], "alice", "evil!", 1)
		},
		"sibling hash": func(p *Proof) {
			p.Path[0].Siblings[0] = strings.Repeat("ab", 32)
		},
		"root":       func(p *Proof) { p.Root = strings.Repeat("cd", 32) },
		"seq range":  func(p *Proof) { p.First = 2; p.Last = 65 },
		"chain link": func(p *Proof) { p.Chain = strings.Repeat("ef", 32) },
		"prev chain": func(p *Proof) { p.PrevChain = strings.Repeat("12", 32) },
		"batch index": func(p *Proof) {
			p.Batch = 7 // breaks the chain link over the header base
		},
	} {
		p := fresh()
		forge(&p)
		if err := VerifyProof(p); err == nil {
			t.Errorf("forged proof (%s) accepted", name)
		}
	}
}

func TestTailTruncationDetectedAgainstAnchor(t *testing.T) {
	l, store := newTestLog(t, Config{Mask: CatAll, MerkleBatch: 8, SegmentRecords: 512, Clock: fixedClock()})
	emitN(l, 20) // Sync per batch shape: 8+8+4 in one segment
	l.Sync()
	st := l.Stats()
	if st.Batches != 3 || st.LastChain == "" || st.LastRoot == "" {
		t.Fatalf("expected 3 anchored batches: %+v", st)
	}

	// Cut the final batch (header + leaves) off the segment tail.
	name := segmentName(0)
	data, err := store.Read(name)
	if err != nil {
		t.Fatal(err)
	}
	cut := strings.LastIndex(string(data[:len(data)-1]), "\n#")
	if cut < 0 {
		t.Fatal("no trailing batch header found")
	}
	store.Put(name, data[:cut+1])

	// A live Log knows its own head: even by-root verification sees
	// the walked chain stop short of it.
	res, err := l.VerifyWith(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || !strings.Contains(res.Reason, "live chain") {
		t.Fatalf("live log missed tail truncation: %+v", res)
	}

	// A fresh Log over the truncated store has no memory — the
	// surviving prefix is self-consistent, which is exactly why the
	// head must be anchored out-of-band (Stats gave us LastChain +
	// Records before the cut).
	l2 := New(Config{Store: store})
	clean, err := l2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !clean.OK {
		t.Fatalf("truncated-but-consistent prefix should pass an unanchored walk: %+v", clean)
	}
	anchored, err := l2.VerifyWith(VerifyOptions{Full: true, AnchorChain: st.LastChain, AnchorRecords: st.Records})
	if err != nil {
		t.Fatal(err)
	}
	if anchored.OK || !strings.Contains(anchored.Reason, "anchor") {
		t.Fatalf("anchored verify missed tail truncation: %+v", anchored)
	}
}

func TestVerifyByRootAndSpotCheck(t *testing.T) {
	l, store := newTestLog(t, Config{Mask: CatAll, MerkleBatch: 16, SegmentRecords: 64, Clock: fixedClock()})
	emitN(l, 160)
	l.Sync()

	res, err := l.VerifyWith(VerifyOptions{SpotCheck: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Mode != "roots" || res.SpotChecked != 2 {
		t.Fatalf("by-root verify of a clean trail: %+v", res)
	}
	if res.Records != 160 || res.Batches != 10 {
		t.Fatalf("by-root walked %d records / %d batches, want 160/10", res.Records, res.Batches)
	}

	// Tamper one leaf in place (same length). By-root without spot
	// checks cannot see it — the chain of roots is untouched — but
	// enough spot checks deterministically catch it, and full mode
	// always does.
	name := segmentName(1)
	data, _ := store.Read(name)
	tampered := strings.Replace(string(data), "cmd 70", "cmd 00", 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found")
	}
	store.Put(name, []byte(tampered))
	delete(l.segIdx, name) // drop the cached index so the walk re-reads

	if res, _ := l.VerifyWith(VerifyOptions{}); !res.OK {
		t.Fatalf("pure by-root mode should not rehash leaves: %+v", res)
	}
	full, _ := l.VerifyWith(VerifyOptions{Full: true})
	if full.OK || len(full.Faults) != 1 {
		t.Fatalf("full verify must localize the tampered batch: %+v", full)
	}
	spot, _ := l.VerifyWith(VerifyOptions{SpotCheck: 64})
	if spot.OK {
		t.Fatalf("64 spot checks over 10 batches missed the tamper: %+v", spot)
	}
	if !strings.Contains(spot.Reason, "spot check") {
		t.Fatalf("unexpected spot-check reason: %q", spot.Reason)
	}
}

func TestQueryIndexSkipsButMatchesFullScan(t *testing.T) {
	l, _ := newTestLog(t, Config{Mask: CatAll, MerkleBatch: 32, SegmentRecords: 64})
	// Three waves in separate batches (Sync commits force a batch
	// boundary): shell-only, deny-only, mixed.
	for i := 0; i < 30; i++ {
		l.Emit(Event{Cat: CatShell, Verb: "command", Detail: fmt.Sprintf("s%d", i)})
	}
	l.Sync()
	for i := 0; i < 30; i++ {
		l.Emit(Event{Cat: CatDeny, Verb: "deny", User: "bob", Detail: fmt.Sprintf("d%d", i)})
	}
	l.Sync()
	for i := 0; i < 30; i++ {
		cat := CatNet
		if i%2 == 0 {
			cat = CatDeny
		}
		l.Emit(Event{Cat: cat, Verb: "x", Detail: fmt.Sprintf("m%d", i)})
	}
	l.Sync()

	all, err := l.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 90 {
		t.Fatalf("full scan returned %d, want 90", len(all))
	}
	for _, cats := range []Category{CatShell, CatDeny, CatNet, CatDeny | CatNet, CatApp} {
		var want []Record
		for _, r := range all {
			if r.Cat&cats != 0 {
				want = append(want, r)
			}
		}
		// Run twice: first may build indexes, second uses the cached
		// index's whole-segment skip path.
		for pass := 0; pass < 2; pass++ {
			got, err := l.Query(Query{Cats: cats})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("cats=%v pass %d: got %d records, want %d", cats, pass, len(got), len(want))
			}
			for i := range got {
				if got[i].Seq != want[i].Seq {
					t.Fatalf("cats=%v: order mismatch at %d", cats, i)
				}
			}
		}
	}
}

func TestMerkleWaitHoldsPartialBatch(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	l, _ := newTestLog(t, Config{
		Mask: CatAll, MerkleBatch: 64, MerkleWait: 50 * time.Millisecond,
		Clock: func() time.Time { return now },
	})
	emitN(l, 10)
	// A non-forced drain sweeps the rings but holds the partial batch.
	l.drain(false)
	st := l.Stats()
	if st.Records != 0 || st.Held != 10 || st.Pending != 10 {
		t.Fatalf("partial batch should be held: %+v", st)
	}
	// Once the wait elapses, the next pass commits it undersized.
	now = now.Add(51 * time.Millisecond)
	l.drain(false)
	st = l.Stats()
	if st.Records != 10 || st.Held != 0 || st.Batches != 1 {
		t.Fatalf("wait expiry should commit the partial batch: %+v", st)
	}
	// A full batch never waits.
	emitN(l, 64)
	l.drain(false)
	if st = l.Stats(); st.Records != 74 || st.Batches != 2 {
		t.Fatalf("full batch should commit immediately: %+v", st)
	}
}

func TestResumeContinuesRootChain(t *testing.T) {
	store := NewMemStore()
	a := New(Config{Mask: CatAll, MerkleBatch: 8, SegmentRecords: 16, Store: store})
	emitN(a, 20)
	a.Sync()
	head := a.Stats()

	b := New(Config{Mask: CatAll, MerkleBatch: 8, SegmentRecords: 16, Store: store})
	emitN(b, 20)
	b.Sync()
	st := b.Stats()
	if st.Batches <= head.Batches {
		t.Fatalf("resumed log did not extend the root chain: %+v vs %+v", st, head)
	}
	res, err := b.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Records != 40 {
		t.Fatalf("resumed trail: %+v", res)
	}
	if res.LastChain != st.LastChain {
		t.Fatalf("walked head %s != live head %s", res.LastChain, st.LastChain)
	}
	// Records committed by the first incarnation are still provable.
	p, err := b.Prove(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProof(p); err != nil {
		t.Fatal(err)
	}
}

// capAdmission is a test Admission capping pending records per user.
type capAdmission struct {
	mu      sync.Mutex
	cap     int
	pending map[string]int
	reject  int
}

func (a *capAdmission) AdmitRecord(user string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pending == nil {
		a.pending = make(map[string]int)
	}
	if a.pending[user] >= a.cap {
		a.reject++
		return false
	}
	a.pending[user]++
	return true
}

func (a *capAdmission) ReleaseRecords(user string, n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pending[user] -= n
	if a.pending[user] < 0 {
		a.pending[user] = 0
	}
}

func TestAdmissionBackpressure(t *testing.T) {
	l, _ := newTestLog(t, Config{Mask: CatAll})
	adm := &capAdmission{cap: 5}
	l.SetAdmission(adm)

	for i := 0; i < 12; i++ {
		l.Emit(Event{Cat: CatDeny, Verb: "deny", User: "mallory", Detail: "storm"})
	}
	// Kernel events (no user) are never admission-gated.
	l.Emit(Event{Cat: CatThread, Verb: "spawn"})
	st := l.Stats()
	if st.Degraded != 7 || st.Dropped != 7 {
		t.Fatalf("expected 7 backpressure drops: %+v", st)
	}
	if st.Emitted != 13 {
		t.Fatalf("emitted %d, want 13 (conservation counts rejected emissions)", st.Emitted)
	}
	l.Sync()
	st = l.Stats()
	if st.Records != 6 {
		t.Fatalf("chained %d, want 6 (5 mallory + 1 kernel)", st.Records)
	}
	if st.Records+st.Dropped != st.Emitted {
		t.Fatalf("conservation broken: %+v", st)
	}
	// Draining released the admissions: the user can emit again.
	adm.mu.Lock()
	pending := adm.pending["mallory"]
	adm.mu.Unlock()
	if pending != 0 {
		t.Fatalf("drain left %d pending admissions", pending)
	}
	l.Emit(Event{Cat: CatDeny, Verb: "deny", User: "mallory", Detail: "after"})
	l.Sync()
	if st = l.Stats(); st.Records != 7 {
		t.Fatalf("post-release emit not admitted: %+v", st)
	}
}

func TestAdmissionReleasedOnRingOverflow(t *testing.T) {
	// One shard of 4 slots, no drainer: overflow displaces admitted
	// records, which must hand their admission back.
	l, _ := newTestLog(t, Config{Mask: CatAll, Shards: 1, ShardCap: 4})
	adm := &capAdmission{cap: 100}
	l.SetAdmission(adm)
	for i := 0; i < 10; i++ {
		l.Emit(Event{Cat: CatShell, Verb: "c", User: "u", Thread: 0})
	}
	adm.mu.Lock()
	pending := adm.pending["u"]
	adm.mu.Unlock()
	if pending != 4 {
		t.Fatalf("pending admissions %d, want 4 (ring capacity)", pending)
	}
	l.Sync()
	adm.mu.Lock()
	pending = adm.pending["u"]
	adm.mu.Unlock()
	if pending != 0 {
		t.Fatalf("pending admissions %d after drain, want 0", pending)
	}
}

func TestBodyEncoderMatchesAppendBody(t *testing.T) {
	recs := []Record{
		{Event: Event{Cat: CatShell, Verb: "command", User: "alice", App: 1, Thread: 2, Detail: "plain ascii"}, Seq: 1, Time: 111},
		{Event: Event{Cat: CatShell, Verb: "command", User: "alice", App: 1, Thread: 3, Detail: "plain ascii"}, Seq: 2, Time: 222}, // memo hits
		{Event: Event{Cat: CatFile, Verb: "open", User: "al\tice\n", App: 4, Thread: 5, Detail: "path \"q\"\t\\weird\nnon-ascii é"}, Seq: 3, Time: 333},
		{Event: Event{Cat: CatFile, Verb: "open", User: "al\tice\n", App: 4, Thread: 5, Detail: "path \"q\"\t\\weird\nnon-ascii é"}, Seq: 4, Time: 444}, // escaped memo hits
		{Event: Event{Cat: CatDeny, Verb: "", User: "", Detail: ""}, Seq: 5, Time: 555},
	}
	var enc bodyEncoder
	for i := range recs {
		want := string(recs[i].appendBody(nil))
		got := string(enc.appendBody(nil, &recs[i]))
		if got != want {
			t.Fatalf("record %d:\n got %q\nwant %q", i, got, want)
		}
		// v2 leaf lines round-trip without a hash field.
		rt, err := parseRecordLine([]byte(got))
		if err != nil {
			t.Fatal(err)
		}
		if rt != recs[i] {
			t.Fatalf("leaf round trip mismatch:\n in %+v\nout %+v", recs[i], rt)
		}
	}
}
