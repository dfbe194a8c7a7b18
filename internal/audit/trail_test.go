package audit

import (
	"strings"
	"testing"
)

// TestSegmentWithoutMarkerFailsClosed: the version marker is required.
// A live log whose segments were emptied, or had their "!v2" line
// stripped, must not verify in either mode, and Query and Prove must
// refuse the trail instead of reading around the damaged segment.
func TestSegmentWithoutMarkerFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(t *testing.T, store *MemStore) []string // returns the damaged segments
		prove  uint64                                       // a seq in a damaged segment
	}{
		{
			name: "every segment emptied",
			tamper: func(t *testing.T, store *MemStore) []string {
				names, _ := store.List()
				for _, name := range names {
					store.Put(name, nil)
				}
				return names
			},
			prove: 1,
		},
		{
			name: "marker stripped",
			tamper: func(t *testing.T, store *MemStore) []string {
				name := segmentName(1)
				data, err := store.Read(name)
				if err != nil {
					t.Fatal(err)
				}
				stripped, ok := strings.CutPrefix(string(data), segVersionLine)
				if !ok {
					t.Fatalf("%s does not open with the marker", name)
				}
				store.Put(name, []byte(stripped))
				return []string{name}
			},
			prove: 20,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, store := newTestLog(t, Config{Mask: CatAll, MerkleBatch: 8, SegmentRecords: 16, Clock: fixedClock()})
			emitN(l, 40)
			l.Sync()
			if res, err := l.Verify(); err != nil || !res.OK {
				t.Fatalf("clean trail: %+v %v", res, err)
			}
			damaged := tc.tamper(t, store)

			full, err := l.Verify()
			if err != nil {
				t.Fatal(err)
			}
			roots, err := l.VerifyWith(VerifyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []VerifyResult{full, roots} {
				if res.OK {
					t.Fatalf("%s verify passed a damaged trail: %+v", res.Mode, res)
				}
				if res.BrokenSegment != damaged[0] {
					t.Fatalf("%s verify broke at %q, want %q: %+v", res.Mode, res.BrokenSegment, damaged[0], res)
				}
				for _, name := range damaged {
					if !hasFault(res, name, "unparseable segment") {
						t.Fatalf("%s verify names no parse fault in %s: %+v", res.Mode, name, res.Faults)
					}
				}
			}
			if recs, err := l.Query(Query{}); err == nil {
				t.Fatalf("Query read a damaged trail: %d records", len(recs))
			}
			if _, err := l.Prove(tc.prove); err == nil {
				t.Fatalf("Prove(%d) succeeded on a damaged trail", tc.prove)
			}
		})
	}
}

// hasFault reports whether res holds a fault in segment whose reason
// contains reason.
func hasFault(res VerifyResult, segment, reason string) bool {
	for _, f := range res.Faults {
		if f.Segment == segment && strings.Contains(f.Reason, reason) {
			return true
		}
	}
	return false
}

// negativeCountSegment returns a real segment cut to its marker plus
// its first batch header, with the header's count field set to -1.
func negativeCountSegment(t *testing.T) []byte {
	t.Helper()
	l, store := newTestLog(t, Config{Mask: CatAll, MerkleBatch: 8, Clock: fixedClock()})
	emitN(l, 8)
	l.Sync()
	data, err := store.Read(segmentName(0))
	if err != nil {
		t.Fatal(err)
	}
	marker, rest, _ := strings.Cut(string(data), "\n")
	header, _, _ := strings.Cut(rest, "\n")
	fields := strings.Split(header, "\t")
	fields[1] = "-1"
	return []byte(marker + "\n" + strings.Join(fields, "\t") + "\n")
}

// TestProveRejectsNonPositiveBatchCount: a batch header's count comes
// from the segment, so a hostile one must be a parse error that Prove
// and VerifyWith report, never a slice size that panics.
func TestProveRejectsNonPositiveBatchCount(t *testing.T) {
	seg := negativeCountSegment(t)
	for _, count := range []string{"-1", "0"} {
		store := NewMemStore()
		store.Put(segmentName(0), []byte(strings.Replace(string(seg), "\t-1\t", "\t"+count+"\t", 1)))
		l := New(Config{Store: store})
		if _, err := l.Prove(3); err == nil || !strings.Contains(err.Error(), "batch count") {
			t.Fatalf("count %s: Prove = %v, want a batch count error", count, err)
		}
		res, err := l.VerifyWith(VerifyOptions{})
		if err != nil || res.OK || !hasFault(res, segmentName(0), "batch count") {
			t.Fatalf("count %s: verify = %+v, %v", count, res, err)
		}
	}
}
