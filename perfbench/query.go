package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// The query workload is the analyst's read path: a tiered store built in
// set-up, mostly cold v2 segments plus a hot tail, with a decoded-block
// cache smaller than the cold working set. One caller runs a fixed mix of
// four query classes drawn from the seed, in closed loop, with a trickle of
// AddBatchAdmit writes at a fixed rate between queries.

const (
	// The store has no hot cap: set-up seals all but the newest
	// queryHotTail packets once, so no write of the timed phases can
	// trigger a seal, whatever the run's length or query throughput.
	queryHotTail    = 8192
	querySegPackets = 4096
	queryCacheBytes = 8 << 20
	queryTailQ      = 0.95
	// One trickle write of queryTrickleBatch frames is due every
	// queryTrickleEvery of phase time, so the frames written per run do
	// not depend on how fast queries run.
	queryTrickleEvery  = 250 * time.Millisecond
	queryTrickleBatch  = 64
	queryMixLen        = 50 * queryBlock
	queryFlows         = 64  // distinct selective flows
	queryWindows       = 32  // distinct windows per window class
	queryWindowPackets = 500 // stored packets per window
	queryStored        = 90000
	queryTrickled      = 20000
	querySetups        = 5
)

// queryClasses in report order, with their count in every block of
// queryBlock queries of the mix. Fixed counts per block, shuffled within
// the block, keep each class's share of any run the same for every seed.
// No source in the repository gives an analyst query mix, so the shares
// are an assumption, chosen so that every class shows end to end: selective
// queries are the majority, so the median query is one of them (at about
// their 67th percentile, as hot windows run faster and cold windows slower;
// at their 33rd if they fell behind cold windows); broad scans are the
// slowest tenth, so the p95 is the middle of their mode, and they take most
// of the time, which is items_per_s; windows are the rest.
var queryClasses = []struct {
	name    string
	inBlock int
}{
	// Indexed single-flow conjunctions, repeated: their blocks could be
	// served from the cache, but broad scans evict them (hit rate under 1 %).
	{"selective", 12},
	{"broad", 2}, // whole-store predicates: decode everything, miss the cache
	{"window_hot", 2},
	{"window_cold", 4}, // old ts windows: zone maps prune other segments
}

const queryBlock = 20

type query struct {
	class int
	expr  string
	count bool // CountExpr; otherwise SelectExpr
	limit int
}

type queryInputs struct {
	stored, trickle []traffic.Frame
}

func genQuery(seed int64) (queryInputs, error) {
	plan := traffic.DefaultPlan(40)
	// The store is built from the first queryStored frames; the rest are
	// written by the trickle.
	all, err := campusScenario(plan, seed, 1, queryStored+queryTrickled-20000,
		attackSpec{kind: traffic.LabelDNSAmp, victim: 3, n: 12000, start: 0.2, dur: 0.5},
		attackSpec{kind: traffic.LabelPortScan, victim: 0, n: 8000, start: 0.4, dur: 0.3})
	if err != nil {
		return queryInputs{}, err
	}
	return queryInputs{stored: all[:queryStored], trickle: all[queryStored:]}, nil
}

type queryNode struct {
	in      queryInputs
	workers int
	store   *datastore.Store
	mix     []query
	pool    []query // distinct queries of the mix
}

func buildQueryNode(in queryInputs, dir string, seed int64, workers int) (*queryNode, error) {
	st := datastore.NewSharded(0)
	if err := st.EnableTiering(datastore.TierPolicy{
		Dir: dir, SegmentPackets: querySegPackets, Format: 2, CacheBytes: queryCacheBytes,
	}); err != nil {
		return nil, err
	}
	const batch = 512
	for lo := 0; lo < len(in.stored); lo += batch {
		if _, err := st.AddBatch(in.stored[lo:min(lo+batch, len(in.stored))], workers); err != nil {
			return nil, err
		}
	}
	if _, err := st.SealHot(queryHotTail); err != nil {
		return nil, err
	}
	ts := st.TierStats()
	if ts.Err != nil || ts.ColdPackets == 0 {
		return nil, fmt.Errorf("query store: %d cold packets, tier error %v", ts.ColdPackets, ts.Err)
	}
	hot, ok := st.Packet(ts.SealedBelow)
	if !ok {
		return nil, fmt.Errorf("query store: no hot packet at the seal watermark %d", ts.SealedBelow)
	}
	n := &queryNode{in: in, store: st, workers: workers}
	n.pool, n.mix = queryMix(in.stored, hot.TS, seed)
	return n, nil
}

// queryMix draws the distinct queries of each class and a fixed sequence
// over them. A selective query is one flow's lifetime, the analyst's "what
// did this conversation do": its 5-tuple as an indexed conjunction, bounded
// by the flow's first and last packet time. The flows are drawn uniformly
// from the stored benign campus-to-Internet tuples. Without the time bound
// a lookup's cost follows how many segments hold its hosts, which swings by
// half with the seed; the attack episodes' one-packet tuples (spoofed DNS
// replies, scan probes) and reply tuples, which name a campus host as
// destination, match thousands of rows and would add a second mode whose
// share also swings with the seed. Windows span a fixed number of stored
// packets. All of this keeps the cost of a class from swinging with the
// seed.
func queryMix(stored []traffic.Frame, hotStart time.Duration, seed int64) (pool, mix []query) {
	rng := rand.New(rand.NewSource(subSeed(seed, 99)))
	fp := packet.NewFlowParser()
	var sum packet.Summary
	type flow struct {
		t           packet.FiveTuple
		first, last time.Duration
	}
	at := make(map[packet.FiveTuple]int)
	var flows []flow
	for i := range stored {
		f := &stored[i]
		if f.Label != traffic.LabelBenign || f.Dir != traffic.DirOutbound {
			continue
		}
		if fp.Parse(f.Data, &sum) != nil || !sum.HasIP {
			continue
		}
		if j, ok := at[sum.Tuple]; ok {
			flows[j].last = f.TS
			continue
		}
		at[sum.Tuple] = len(flows)
		flows = append(flows, flow{t: sum.Tuple, first: f.TS, last: f.TS})
	}
	byClass := make([][]query, len(queryClasses))
	add := func(class int, expr string, limit int) {
		count := len(byClass[class])%2 == 1 // Select and Count alternate
		byClass[class] = append(byClass[class], query{class: class, expr: expr, count: count, limit: limit})
	}
	for _, i := range rng.Perm(len(flows))[:queryFlows] {
		fl := flows[i]
		t := fl.t
		add(0, fmt.Sprintf("src.ip == %s && dst.ip == %s && src.port == %d && dst.port == %d && ts >= %dus && ts < %dus",
			t.SrcIP, t.DstIP, t.SrcPort, t.DstPort, fl.first.Microseconds(), fl.last.Microseconds()+1), 0)
	}
	for _, expr := range []string{"udp && len > 600", "tcp && !tcp.syn", "ttl < 100", "!dns"} {
		byClass[1] = append(byClass[1], query{class: 1, expr: expr, limit: 100}, query{class: 1, expr: expr, count: true})
	}
	hot := sort.Search(len(stored), func(i int) bool { return stored[i].TS >= hotStart })
	window := func(class, lo, hi int) {
		for i := 0; i < queryWindows; i++ {
			at := lo + rng.Intn(hi-lo-queryWindowPackets)
			from, to := stored[at].TS, stored[at+queryWindowPackets].TS
			add(class, fmt.Sprintf("ts >= %dus && ts < %dus", from.Microseconds(), to.Microseconds()), 0)
		}
	}
	window(2, hot, len(stored))
	window(3, 0, hot)
	for _, qs := range byClass {
		pool = append(pool, qs...)
	}
	var block []int
	for class, c := range queryClasses {
		for i := 0; i < c.inBlock; i++ {
			block = append(block, class)
		}
	}
	for len(mix) < queryMixLen {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, class := range block {
			mix = append(mix, byClass[class][rng.Intn(len(byClass[class]))])
		}
	}
	return pool, mix
}

// run executes one query and returns the rows it produced.
func (n *queryNode) run(q query) (int, error) {
	if q.count {
		return n.store.CountExpr(q.expr)
	}
	rows, err := n.store.SelectExpr(q.expr, q.limit)
	return len(rows), err
}

// queryPhase is what one timed pass over the mix observed.
type queryPhase struct {
	opMS       []float64
	classMS    map[string][]float64 // "<select|count>_ms_p50.<class>"
	trickleMS  []float64
	rows       uint64
	queries    int
	elapsed    time.Duration
	start, end datastore.TierStats
}

// runMix runs the mix for dur. With alternate set, the tracer is switched
// on for every other operation.
func (n *queryNode) runMix(rep *report, dur time.Duration, pos *int, trickle *cycler, alternate bool) queryPhase {
	tr := rep.tr
	ph := queryPhase{classMS: make(map[string][]float64), start: n.store.TierStats()}
	batch := make([]traffic.Frame, 0, queryTrickleBatch)
	onMS, offMS := []float64{}, []float64{}
	begin := time.Now()
	trickles := 0
	for i := 0; time.Since(begin) < dur; i++ {
		if alternate {
			tr.on = i%2 == 0
		}
		tr.setOp(int64(i))
		if due := int(time.Since(begin) / queryTrickleEvery); trickles < due {
			trickles++
			batch = trickle.next(batch, queryTrickleBatch)
			var res datastore.IngestResult
			var err error
			d := tr.timed("datastore.add_batch_admit", func() { res, err = n.store.AddBatchAdmit(batch, n.workers) })
			if err == nil && res.Ingested != len(batch) {
				err = fmt.Errorf("trickle batch of %d stored %d", len(batch), res.Ingested)
			}
			rep.op(err)
			ph.trickleMS = append(ph.trickleMS, ms(d))
			continue
		}
		q := n.mix[*pos%len(n.mix)]
		*pos++
		kind, name := "select", "datastore.select"
		if q.count {
			kind, name = "count", "datastore.count"
		}
		var rows int
		var err error
		end := tr.begin("bench.query")
		d := tr.timed(name, func() { rows, err = n.run(q) })
		end()
		rep.op(err)
		if err != nil {
			continue
		}
		ph.opMS = append(ph.opMS, ms(d))
		key := kind + "_ms_p50." + queryClasses[q.class].name
		ph.classMS[key] = append(ph.classMS[key], ms(d))
		ph.rows += uint64(rows)
		ph.queries++
		if alternate && tr.on {
			onMS = append(onMS, ms(d))
		} else if alternate {
			offMS = append(offMS, ms(d))
		}
	}
	ph.elapsed = time.Since(begin)
	ph.end = n.store.TierStats()
	rep.check(ph.end.Seals == ph.start.Seals, "%d seals during a timed query phase", ph.end.Seals-ph.start.Seals)
	if alternate {
		tr.on = true
		rep.set("trace.overhead_ms_per_op", median(onMS)-median(offMS), "ms")
	}
	return ph
}

func runQuery(cfg runConfig, rep *report) error {
	var genTimes []float64
	builds := 0
	node, err := setupMedian(rep, querySetups, func() (*queryNode, string, error) {
		t0 := time.Now()
		in, err := genQuery(cfg.seed)
		genTimes = append(genTimes, time.Since(t0).Seconds())
		if err != nil {
			return nil, "", err
		}
		builds++
		n, err := buildQueryNode(in, filepath.Join(cfg.workDir, fmt.Sprintf("query-%d", builds)), cfg.seed, cfg.workers)
		digest := frameDigest(in.stored, in.trickle)
		if n != nil {
			n.in.stored = nil // the store holds them now
		}
		return n, digest, err
	}, func(*queryNode) {})
	if err != nil {
		return err
	}
	rep.set("traffic.gen_s", median(genTimes), "s")

	// Warm the cache and lazy state once before timing.
	for _, q := range node.pool {
		_, err := node.run(q)
		rep.op(err)
	}
	trickle := newCycler(node.in.trickle)
	pos := 0
	phaseDur := phaseDuration(cfg)
	ph := node.runMix(rep, phaseDur, &pos, trickle, false)
	if ph.queries == 0 {
		return fmt.Errorf("no query completed")
	}
	rep.set("op_p50_ms", median(ph.opMS), "ms")
	rep.set("op_tail_ms", tailQuantile(rep, "query latency", ph.opMS, queryTailQ), "ms")
	rep.set("items_per_s", float64(ph.queries)/ph.elapsed.Seconds(), "1/s")
	for key, xs := range ph.classMS {
		rep.set("datastore."+key, median(xs), "ms")
	}
	hits := ph.end.CacheHits - ph.start.CacheHits
	misses := ph.end.CacheMisses - ph.start.CacheMisses
	rep.set("datastore.cache_hit_rate", float64(hits)/float64(max(1, hits+misses)), "ratio")
	scanned := ph.end.SegmentsScanned - ph.start.SegmentsScanned
	pruned := ph.end.SegmentsPruned - ph.start.SegmentsPruned
	rep.set("datastore.segments_scanned_per_query", float64(scanned)/float64(ph.queries), "count")
	rep.set("datastore.segments_pruned_frac", float64(pruned)/float64(max(1, scanned+pruned)), "ratio")
	rep.set("datastore.rows_returned_per_query", float64(ph.rows)/float64(ph.queries), "count")
	rep.set("datastore.trickle_add_batch_ms", median(ph.trickleMS), "ms")
	if cfg.trace {
		node.runMix(rep, phaseDur, &pos, trickle, true)
	}
	checkQueries(rep, node)
	return nil
}

// checkQueries compares every distinct query of the mix against the
// store's serial full-scan reference, on the store's final state.
func checkQueries(rep *report, n *queryNode) {
	type answer struct {
		count int
		ids   []datastore.PacketID
		ts    []time.Duration
	}
	ask := func(q query) (answer, error) {
		if q.count {
			c, err := n.store.CountExpr(q.expr)
			return answer{count: c}, err
		}
		rows, err := n.store.SelectExpr(q.expr, q.limit)
		a := answer{count: len(rows)}
		for _, r := range rows {
			a.ids = append(a.ids, r.ID)
			a.ts = append(a.ts, r.TS)
		}
		return a, err
	}
	got := make([]answer, len(n.pool))
	for i, q := range n.pool {
		a, err := ask(q)
		rep.op(err)
		got[i] = a
	}
	// The serial-scan reference reads the whole store per query; spread
	// the pool over the workers, outside any timing.
	n.store.SetScanQuery(true)
	want := make([]answer, len(n.pool))
	errs := make([]error, len(n.pool))
	var wg sync.WaitGroup
	for w := 0; w < n.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(n.pool); i += n.workers {
				want[i], errs[i] = ask(n.pool[i])
			}
		}(w)
	}
	wg.Wait()
	n.store.SetScanQuery(false)
	for i, q := range n.pool {
		want, err := want[i], errs[i]
		rep.op(err)
		same := want.count == got[i].count && len(want.ids) == len(got[i].ids)
		for j := 0; same && j < len(want.ids); j++ {
			same = want.ids[j] == got[i].ids[j] && want.ts[j] == got[i].ts[j]
		}
		rep.check(same, "%q (count=%v): %d rows, scan reference %d", q.expr, q.count, got[i].count, want.count)
	}
}
