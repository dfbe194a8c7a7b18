package audit

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentEmitLiveDrainTrailVerifies drives many emitters over
// a few shared shards against a live drainer plus a goroutine forcing
// drains back to back, then verifies the whole trail in full. It is
// the regression test for a sequence number taken outside the shard
// lock: an emitter that stalled between numbering a record and
// pushing it let a drain commit past it, and the late record then
// broke "sequence not increasing" in the next batch. Live subscribers
// must also see records in Seq order.
func TestConcurrentEmitLiveDrainTrailVerifies(t *testing.T) {
	l, _ := newTestLog(t, Config{Mask: CatAll, Shards: 2, ShardCap: 4096, SegmentRecords: 256,
		MerkleBatch: 16, FlushInterval: 200 * time.Microsecond})
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		l.Run(stop)
	}()
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				l.Sync()
			}
		}
	}()
	sub := l.Subscribe("order", CatAll, 1<<16)
	var (
		subErr  error
		subDone = make(chan struct{})
	)
	go func() {
		defer close(subDone)
		var last uint64
		for rec := range sub.C() {
			if rec.Seq <= last && subErr == nil {
				subErr = fmt.Errorf("subscriber saw seq %d after %d", rec.Seq, last)
			}
			last = rec.Seq
		}
	}()

	const emitters, perEmitter = 16, 2000
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
	wg.Wait()
	close(stop)
	bg.Wait()
	sub.Close()
	<-subDone

	res, err := l.VerifyWith(VerifyOptions{Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("trail does not verify after concurrent emit + live drain: %s (%d faults)", res.Reason, len(res.Faults))
	}
	st := l.Stats()
	if st.Pending != 0 || st.Records+st.Dropped != st.Emitted || st.Emitted != emitters*perEmitter {
		t.Fatalf("conservation: %+v", st)
	}
	if subErr != nil {
		t.Fatal(subErr)
	}
}

// TestSweepMergesShardRunsAcrossOverflowGaps interleaves emitters over
// four small rings so that drains see several shards' runs at once
// and some rings overflow between drains. The merged trail must come
// out in strictly increasing Seq order with the overflow gaps, mix
// shards within a batch, conserve every record and verify.
func TestSweepMergesShardRunsAcrossOverflowGaps(t *testing.T) {
	l, _ := newTestLog(t, Config{Mask: CatAll, Shards: 4, ShardCap: 4, MerkleBatch: 8})
	const n = 200
	for i := 0; i < n; i++ {
		// A skewed, irregular thread pattern: shard 3 gets bursts
		// longer than its ring, the others trickle.
		thread := int64(i*7+i/5) % 4
		if i%29 < 6 {
			thread = 3
		}
		l.Emit(Event{Cat: CatShell, Verb: "command", Thread: thread, Detail: fmt.Sprint(i)})
		if i%11 == 10 {
			l.Sync()
		}
	}
	l.Sync()
	st := l.Stats()
	if st.Dropped == 0 {
		t.Fatal("setup: no ring overflowed")
	}
	if st.Records+st.Dropped != n || st.Pending != 0 {
		t.Fatalf("conservation: %+v", st)
	}
	recs, err := l.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != st.Records {
		t.Fatalf("query returned %d records, stats say %d", len(recs), st.Records)
	}
	mixed, gaps := false, false
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("record %d: seq %d after %d", i, recs[i].Seq, recs[i-1].Seq)
		}
		gaps = gaps || recs[i].Seq > recs[i-1].Seq+1
		mixed = mixed || recs[i].Thread != recs[i-1].Thread
	}
	if !mixed || !gaps {
		t.Fatalf("setup: mixed shards %t, overflow gaps %t", mixed, gaps)
	}
	res, err := l.VerifyWith(VerifyOptions{Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("merged trail does not verify: %+v", res)
	}
}

// TestSweepLeavesRecordsPastTheCut: a record numbered after the
// drainer read the sequence counter stays in its ring (still counted
// as pending) and is committed by a later drain, after everything
// before it.
func TestSweepLeavesRecordsPastTheCut(t *testing.T) {
	l, _ := newTestLog(t, Config{Mask: CatAll, Shards: 2, ShardCap: 8})
	l.Emit(Event{Cat: CatShell, Verb: "a", Thread: 0}) // seq 1
	l.Emit(Event{Cat: CatShell, Verb: "b", Thread: 1}) // seq 2
	// An emitter on shard 1 numbered seq 3 after the cut was read:
	// its record is in the ring, but the counter the drainer reads
	// still says 2.
	sh := &l.shards[1]
	sh.buf[(sh.start+sh.n)%len(sh.buf)] = Record{Event: Event{Cat: CatShell, Verb: "c", Thread: 1}, Seq: 3}
	sh.n++
	l.Sync()
	if st := l.Stats(); st.Records != 2 || st.Pending != 1 {
		t.Fatalf("after the first drain: records %d pending %d, want 2 and 1", st.Records, st.Pending)
	}
	l.seq.Store(3)
	l.Emit(Event{Cat: CatShell, Verb: "d", Thread: 0}) // seq 4
	l.Sync()
	recs, err := l.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%d%s", r.Seq, r.Verb))
	}
	if fmt.Sprint(got) != "[1a 2b 3c 4d]" {
		t.Fatalf("trail = %v", got)
	}
	if res, err := l.Verify(); err != nil || !res.OK {
		t.Fatalf("verify: %+v %v", res, err)
	}
}

// TestStatsCountsEachRecordOnceDuringDrain snapshots Stats while a
// drain moves records from the rings into the hold and on into the
// chain. The snapshot must count every record exactly once. It used to
// read the rings before taking drainMu, so a sweep in between counted
// the swept records twice (in the rings and in the hold).
func TestStatsCountsEachRecordOnceDuringDrain(t *testing.T) {
	l, _ := newTestLog(t, Config{Mask: CatAll, Shards: 4, MerkleBatch: 8,
		MerkleWait: time.Hour, FlushInterval: time.Hour})
	for round := 0; round < 200; round++ {
		for i := 0; i < 20; i++ {
			l.Emit(Event{Cat: CatShell, Verb: "v", Thread: int64(i)})
		}
		synced := make(chan struct{})
		go func() {
			defer close(synced)
			l.Sync()
		}()
		for done := false; !done; {
			select {
			case <-synced:
				done = true
			default:
			}
			if st := l.Stats(); st.Records+st.Dropped+uint64(st.Pending) != st.Emitted {
				t.Fatalf("round %d: records %d + dropped %d + pending %d != emitted %d",
					round, st.Records, st.Dropped, st.Pending, st.Emitted)
			}
		}
	}
}
