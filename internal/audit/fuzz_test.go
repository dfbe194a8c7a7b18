package audit

import (
	"encoding/hex"
	"encoding/json"
	"testing"
)

// Fuzz targets for the two decoders that read untrusted bytes: the
// segment parser behind resume, VerifyWith, Query and Prove, and
// VerifyProof. Seed corpora live in testdata/fuzz/<target>/ and run
// under plain `go test`; `make fuzz-smoke` fuzzes each target briefly.

// fuzzTrail builds the deterministic reference trail the seeds are cut
// from: 40 records in batches of 8, 16 records per segment.
func fuzzTrail() (*Log, *MemStore) {
	store := NewMemStore()
	l := New(Config{Mask: CatAll, MerkleBatch: 8, SegmentRecords: 16, Clock: fixedClock(), Store: store})
	emitN(l, 40)
	l.Sync()
	return l, store
}

// FuzzSegment resumes a fresh log over one fuzzed segment and drives
// every reader over it. Nothing may panic, and a segment that passes a
// full verify must also pass by root, answer Query and Prove
// consistently, and stay verifiable after the resumed log appends.
func FuzzSegment(f *testing.F) {
	_, store := fuzzTrail()
	seg, _ := store.Read(segmentName(0))
	f.Add(seg)
	f.Fuzz(func(t *testing.T, data []byte) {
		store := NewMemStore()
		store.Put(segmentName(0), data)
		l := New(Config{Mask: CatAll, Shards: 1, ShardCap: 4, Store: store})
		full, err := l.VerifyWith(VerifyOptions{Full: true})
		if err != nil {
			t.Fatal(err)
		}
		roots, err := l.VerifyWith(VerifyOptions{SpotCheck: 4})
		if err != nil {
			t.Fatal(err)
		}
		recs, qerr := l.Query(Query{})
		if !full.OK {
			_, _ = l.Prove(1)
			return
		}
		if !roots.OK {
			t.Fatalf("full verify passed what by-root verify refused: %+v", roots)
		}
		if qerr != nil || len(recs) != full.Records {
			t.Fatalf("Query on a verified segment: %d records (verify walked %d), %v", len(recs), full.Records, qerr)
		}
		if len(recs) > 0 {
			for _, rec := range []Record{recs[0], recs[len(recs)-1]} {
				p, err := l.Prove(rec.Seq)
				if err != nil {
					t.Fatalf("Prove(%d) on a verified segment: %v", rec.Seq, err)
				}
				if err := VerifyProof(p); err != nil {
					t.Fatalf("proof of seq %d from a verified segment: %v", rec.Seq, err)
				}
			}
		}
		l.Emit(Event{Cat: CatShell, Verb: "command", User: "alice"})
		l.Sync()
		after, err := l.Verify()
		if err != nil || !after.OK || after.Records != full.Records+1 {
			t.Fatalf("resumed log appended an unverifiable trail: %+v, %v", after, err)
		}
	})
}

// FuzzVerifyProof feeds VerifyProof JSON mutations of valid proofs.
// Nothing may panic, and a proof that verifies must carry a record of
// the reference trail under one of its batch chain links: without
// breaking SHA-256, a mutation cannot make a forged proof sound.
func FuzzVerifyProof(f *testing.F) {
	l, _ := fuzzTrail()
	recs, err := l.Query(Query{})
	if err != nil {
		f.Fatal(err)
	}
	bySeq := make(map[uint64]Record, len(recs))
	for _, rec := range recs {
		bySeq[rec.Seq] = rec
	}
	chains := make(map[string]bool)
	for _, name := range []string{segmentName(0), segmentName(1), segmentName(2)} {
		for _, m := range l.segIdx[name].batches {
			chains[hex.EncodeToString(m.chain[:])] = true
		}
	}
	for _, seq := range []uint64{1, 13, 40} {
		p, err := l.Prove(seq)
		if err != nil {
			f.Fatal(err)
		}
		b, _ := json.Marshal(p)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Proof
		if json.Unmarshal(data, &p) != nil {
			return
		}
		if VerifyProof(p) != nil {
			return
		}
		rec, err := p.Record()
		if err != nil {
			t.Fatalf("sound proof whose record does not decode: %v", err)
		}
		if !chains[p.Chain] {
			t.Fatalf("sound proof under a chain link the trail never wrote: %s", p.Chain)
		}
		if want, ok := bySeq[rec.Seq]; !ok || want != rec {
			t.Fatalf("sound proof of a record the trail never wrote: %+v", rec)
		}
	})
}
