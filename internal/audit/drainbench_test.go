package audit

import (
	"testing"
	"time"
)

// BenchmarkDrainStorm measures drain (Sync) cost per record under the
// denial-storm shape — identical refused-check events flooding one
// ring — across a sweep of Merkle batch sizes. The ns/record metric
// times only the drain; emission is identical on every path. mvmbench
// §E-audit publishes the same comparison.
func BenchmarkDrainStorm(b *testing.B) {
	storm := Event{Cat: CatDeny, Verb: "deny", User: "mallory", App: 3, Thread: 9,
		Detail: `file "/etc/shadow" "read" domain=file:/local/evil`}
	const stormN = 4096
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"merkle16", Config{MerkleBatch: 16}},
		{"merkle64", Config{MerkleBatch: 64}},
		{"merkle256", Config{MerkleBatch: 256}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := tc.cfg
			cfg.Store = NewMemStore()
			cfg.Mask = CatDeny
			cfg.Shards = 1
			cfg.ShardCap = stormN
			l := New(cfg)
			var total time.Duration
			rounds := 0
			for rounds*stormN < b.N {
				for i := 0; i < stormN; i++ {
					l.Emit(storm)
				}
				t0 := time.Now()
				l.Sync()
				total += time.Since(t0)
				rounds++
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(rounds*stormN), "ns/record")
		})
	}
}
