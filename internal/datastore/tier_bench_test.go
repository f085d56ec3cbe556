package datastore

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"campuslab/internal/traffic"
)

// Tier benchmarks (DESIGN.md §14):
//
//	go test -bench='BenchmarkSeal|BenchmarkSegmentQuery|BenchmarkColdSelect|BenchmarkEvictBefore' ./internal/datastore
//
// BenchmarkSegmentQuery sweeps query shape (selective/absent/broad) ×
// data placement (hot/cold) × operation (count/select): `absent` is the zone-map prune-hit case
// (every segment skipped without touching a column), `selective` is the
// prune-miss + posting-intersection case — on this fixture a needle, a
// few dozen rows in 20k, so op=select isolates the block-skipping win —
// and `broad` is the worst case (not indexable, full window decode).
// BenchmarkColdSelect adds the decoded-block cache axis (cold+warm).

// tierBenchFrames is a mid-sized episode: big enough to fill several
// segments, small enough that per-iteration store rebuilds stay honest.
var tierBenchFrames = sync.OnceValue(func() []traffic.Frame {
	frames := queryBenchFrames()
	if len(frames) > 20000 {
		frames = frames[:20000]
	}
	return frames
})

// coldBenchStore builds (once per decoded-block cache budget) the fully
// sealed store, cut into 4096-row segments. The segment directory must
// outlive the benchmark that happens to build the store (the stores are
// shared), so it cannot come from b.TempDir().
var coldBenchStores sync.Map

func coldBenchStore(b *testing.B, cacheBytes int64) *Store {
	b.Helper()
	if st, ok := coldBenchStores.Load(cacheBytes); ok {
		return st.(*Store)
	}
	dir, err := os.MkdirTemp("", "campuslab-tier-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	st := NewSharded(4)
	if err := st.EnableTiering(TierPolicy{
		Dir: dir, SegmentPackets: 4096, MinSealPackets: 1, CacheBytes: cacheBytes,
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := st.AddBatch(tierBenchFrames(), 0); err != nil {
		b.Fatal(err)
	}
	if _, err := st.SealHot(0); err != nil {
		b.Fatal(err)
	}
	coldBenchStores.Store(cacheBytes, st)
	return st
}

// BenchmarkSeal measures the spill path end to end: collect, column-encode,
// compress, fsync, manifest commit, hot trim.
func BenchmarkSeal(b *testing.B) {
	frames := tierBenchFrames()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := NewSharded(4)
		if err := st.EnableTiering(TierPolicy{Dir: b.TempDir(), SegmentPackets: 4096, MinSealPackets: 1}); err != nil {
			b.Fatal(err)
		}
		if _, err := st.AddBatch(frames, 0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := st.SealHot(0)
		if err != nil {
			b.Fatal(err)
		}
		if n != len(frames) {
			b.Fatalf("sealed %d of %d", n, len(frames))
		}
	}
	b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// benchStoreOp runs one (store, filter, op) cell.
func benchStoreOp(b *testing.B, st *Store, f *Filter, op string, cold bool) {
	st.SetQueryWorkers(1)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if op == "select" {
			n = len(st.Select(f, 0))
		} else {
			n = st.Count(f)
		}
	}
	b.ReportMetric(float64(n), "hits")
	if cold {
		if ts := st.TierStats(); ts.Err != nil {
			b.Fatal(ts.Err)
		}
	}
}

// BenchmarkSegmentQuery: the cold rows live in compressed columns; the
// sweep shows what each query shape pays for them relative to hot RAM.
func BenchmarkSegmentQuery(b *testing.B) {
	cases := []struct{ name, expr string }{
		{"selective", "proto == udp && dst.port == 53"}, // prune-miss needle: zones admit, index narrows to ~40 rows
		{"absent", "dst.port == 59999"},                 // prune-hit: zones refute every segment
		{"broad", "len > 100"},                          // not indexable: full window decode
	}
	for _, c := range cases {
		f := MustFilter(c.expr)
		for _, op := range []string{"count", "select"} {
			op := op
			b.Run(fmt.Sprintf("expr=%s/tier=hot/op=%s", c.name, op), func(b *testing.B) {
				benchStoreOp(b, queryBenchStore(b, 4), f, op, false)
			})
			st := coldBenchStore(b, 0)
			b.Run(fmt.Sprintf("expr=%s/tier=cold/op=%s", c.name, op), func(b *testing.B) {
				benchStoreOp(b, st, f, op, true)
			})
		}
	}
	// Prune accounting sanity: the absent query must have skipped every
	// segment via zone maps.
	st := coldBenchStore(b, 0)
	pre := st.TierStats()
	st.Count(MustFilter("dst.port == 59999"))
	post := st.TierStats()
	if scanned := post.SegmentsScanned - pre.SegmentsScanned; scanned != 0 {
		b.Fatalf("absent-value query decoded %d segments; zone maps should prune all", scanned)
	}
}

// BenchmarkColdSelect is the cache axis: the selective materializing
// query against hot RAM, the cold tier decoding every time, and the cold
// tier with a warm decoded-block cache.
func BenchmarkColdSelect(b *testing.B) {
	f := MustFilter("proto == udp && dst.port == 53")
	cases := []struct {
		name       string
		cacheBytes int64
		hot        bool
	}{
		{name: "tier=hot", hot: true},
		{name: "tier=cold/cache=off"},
		{name: "tier=cold/cache=on", cacheBytes: 64 << 20},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var st *Store
			if c.hot {
				st = queryBenchStore(b, 4)
			} else {
				st = coldBenchStore(b, c.cacheBytes)
				if c.cacheBytes > 0 {
					st.Select(f, 0) // warm the cache outside the timer
				}
			}
			st.SetQueryWorkers(1)
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				n = len(st.Select(f, 0))
			}
			if n == 0 {
				b.Fatal("selective Select matched nothing; segment reads are failing")
			}
			b.ReportMetric(float64(n), "hits")
			if !c.hot {
				ts := st.TierStats()
				if ts.Err != nil {
					b.Fatal(ts.Err)
				}
				if c.cacheBytes > 0 && ts.CacheHits == 0 {
					b.Fatal("warm-cache benchmark never hit the cache")
				}
			}
		})
	}
}

// BenchmarkEvictBefore pins the untiered eviction path (per-shard slab cut
// + full posting trim): the tiered EvictBefore routes to SealBefore, so
// this guards the legacy drop path against regressions.
func BenchmarkEvictBefore(b *testing.B) {
	frames := tierBenchFrames()
	var cut time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := NewSharded(4)
		if _, err := st.AddBatch(frames, 0); err != nil {
			b.Fatal(err)
		}
		if cut == 0 {
			cut = time.Duration(st.lastTS.Load()) / 2
		}
		b.StartTimer()
		if n := st.EvictBefore(cut); n == 0 {
			b.Fatal("evicted nothing")
		}
	}
}
