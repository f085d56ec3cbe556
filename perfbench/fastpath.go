package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/core"
	"campuslab/internal/dataplane"
	"campuslab/internal/features"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// The fastpath workload is the fast loop of Figure 1: packet -> verdict ->
// mitigation. A pre-generated campus + DNS-amplification trace is parsed by
// packet.FlowParser and fed to a data-plane-tier control.Loop, in
// control.ReplayBatch-sized batches, running the extracted-tree drop
// program and the compiled forest ensemble. The trace is replayed pass
// after pass, each through a fresh loop, so every pass must end with the
// same LoopStats. One operation is one batch; its p99 swings by a fifth
// from run to run with interference from the host, so the tail reported is
// the p90.

const fastpathTailQ = 0.90

type fastpathNode struct {
	trace []traffic.Frame
	drop  *dataplane.Program
	ens   *dataplane.EnsembleProgram
}

func genFastpath(seed int64) (train, trace []traffic.Frame, err error) {
	plan := traffic.DefaultPlan(40)
	train, err = campusScenario(plan, seed, 1, 10000,
		attackSpec{kind: traffic.LabelDNSAmp, victim: 5, n: 10000, start: 0.15, dur: 0.7})
	if err != nil {
		return nil, nil, err
	}
	trace, err = campusScenario(plan, seed, 2, 24000,
		attackSpec{kind: traffic.LabelDNSAmp, victim: 6, n: 6000, start: 0.2, dur: 0.5})
	return train, trace, err
}

// buildFastpath trains the deployment the loop runs: collect, develop, and
// compile the black-box forest into a data-plane ensemble.
func buildFastpath(train, trace []traffic.Frame, seed int64, workers int) (*fastpathNode, error) {
	plan := traffic.DefaultPlan(40)
	lab, err := core.NewLab(core.Config{Name: "bench", Plan: plan, Workers: workers})
	if err != nil {
		return nil, err
	}
	if _, err := lab.Collect(&sliceGen{frames: train}); err != nil {
		return nil, err
	}
	dep, err := lab.Develop(core.DevelopConfig{
		Target: traffic.LabelDNSAmp, ForestTrees: 30, ForestDepth: 10, DeployDepth: 4,
		Seed: subSeed(seed, 3), Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	ens, err := dataplane.CompileForestEnsemble(dep.BlackBox, features.PacketSchema, dataplane.EnsembleConfig{
		Name: "bench-ensemble", DropClasses: []int{1}, MinConfidence: 0.9, Fallback: dep.Extraction.Tree,
	})
	if err != nil {
		return nil, err
	}
	// Frames the parser rejects (non-IP) never reach the loop; drop them
	// here so that every replayed frame is one verdict.
	fp := packet.NewFlowParser()
	var s packet.Summary
	kept := trace[:0:0]
	for _, f := range trace {
		if fp.Parse(f.Data, &s) == nil {
			kept = append(kept, f)
		}
	}
	return &fastpathNode{trace: kept, drop: dep.DropProgram, ens: ens}, nil
}

func (n *fastpathNode) newLoop() (*control.Loop, error) {
	return control.NewLoop(control.LoopConfig{
		Tier: control.TierDataPlane, Program: n.drop, Ensemble: n.ens,
		Threshold: 0.9, Window: time.Second, MinEvidence: 30,
	})
}

// pass replays the trace once through a fresh loop, timing every batch.
type fastpathPass struct {
	batchMS       []float64
	parse, feed   time.Duration
	stats         control.LoopStats
	elapsed       time.Duration
	parseFailures int
}

func (n *fastpathNode) pass(tr *tracer) (fastpathPass, error) {
	var p fastpathPass
	fp := packet.NewFlowParser()
	var (
		sums  [control.ReplayBatch]packet.Summary
		fptrs [control.ReplayBatch]*traffic.Frame
		sptrs [control.ReplayBatch]*packet.Summary
		keep  [control.ReplayBatch]bool
	)
	for i := range sptrs {
		sptrs[i] = &sums[i]
	}
	start := time.Now()
	end := tr.begin("bench.fastpath_pass")
	defer end()
	loop, err := n.newLoop()
	if err != nil {
		return p, err
	}
	for lo := 0; lo < len(n.trace); lo += control.ReplayBatch {
		hi := min(lo+control.ReplayBatch, len(n.trace))
		t0 := time.Now()
		k := 0
		p.parse += tr.timed("packet.parse", func() {
			for i := lo; i < hi; i++ {
				if fp.Parse(n.trace[i].Data, &sums[k]) != nil {
					p.parseFailures++
					continue
				}
				fptrs[k] = &n.trace[i]
				k++
			}
		})
		p.feed += tr.timed("control.feed_batch", func() { loop.FeedBatch(fptrs[:k], sptrs[:k], keep[:k]) })
		p.batchMS = append(p.batchMS, ms(time.Since(t0)))
	}
	p.stats = loop.Finish()
	p.elapsed = time.Since(start)
	return p, nil
}

func runFastpath(cfg runConfig, rep *report) error {
	var genTimes []float64
	node, err := setupMedian(rep, 3, func() (*fastpathNode, string, error) {
		t0 := time.Now()
		train, trace, err := genFastpath(cfg.seed)
		genTimes = append(genTimes, time.Since(t0).Seconds())
		if err != nil {
			return nil, "", err
		}
		n, err := buildFastpath(train, trace, cfg.seed, cfg.workers)
		return n, frameDigest(train, trace), err
	}, func(*fastpathNode) {})
	if err != nil {
		return err
	}
	rep.set("traffic.gen_s", median(genTimes), "s")

	var first *control.LoopStats
	checkPass := func(i int, p *fastpathPass) {
		rep.check(p.parseFailures == 0, "pass %d: %d frames failed to parse", i, p.parseFailures)
		if first == nil {
			first = &p.stats
			rep.check(p.stats.AttackDropped > 0, "pass %d dropped no attack packet", i)
			return
		}
		rep.check(reflect.DeepEqual(*first, p.stats), "pass %d: LoopStats %+v, first pass %+v", i, p.stats, *first)
	}
	phaseDur := phaseDuration(cfg)
	off := &tracer{}
	var batchMS []float64
	var pkts uint64
	var busy time.Duration
	start := time.Now()
	for i := 0; time.Since(start) < phaseDur || i < 2; i++ {
		p, err := node.pass(off)
		rep.op(err)
		if err != nil {
			continue
		}
		checkPass(i, &p)
		batchMS = append(batchMS, p.batchMS...)
		pkts += p.stats.Packets
		busy += p.elapsed
	}
	if pkts == 0 {
		return fmt.Errorf("no fastpath pass completed")
	}
	rep.set("op_p50_ms", median(batchMS), "ms")
	rep.set("op_tail_ms", tailQuantile(rep, "batch latency", batchMS, fastpathTailQ), "ms")
	rep.set("items_per_s", float64(pkts)/busy.Seconds(), "1/s")
	if cfg.trace {
		return traceFastpath(rep, node, phaseDur, median(batchMS), checkPass)
	}
	return nil
}

// traceFastpath repeats passes with spans around the parser and the loop,
// then times the switch alone on the same trace.
func traceFastpath(rep *report, node *fastpathNode, dur time.Duration, untracedMS float64, checkPass func(int, *fastpathPass)) error {
	var parse, feed time.Duration
	var pkts, escalated uint64
	var batchMS []float64
	start := time.Now()
	for i := 0; time.Since(start) < dur || i < 1; i++ {
		rep.tr.setOp(int64(i))
		p, err := node.pass(rep.tr)
		rep.op(err)
		if err != nil {
			continue
		}
		checkPass(1000+i, &p)
		parse += p.parse
		feed += p.feed
		pkts += p.stats.Packets
		escalated += p.stats.Escalations
		batchMS = append(batchMS, p.batchMS...)
	}
	if pkts == 0 {
		return fmt.Errorf("no traced fastpath pass completed")
	}
	rep.set("packet.parse_ns_per_pkt", float64(parse.Nanoseconds())/float64(pkts), "ns")
	rep.set("control.feed_ns_per_pkt", float64(feed.Nanoseconds())/float64(pkts), "ns")
	rep.set("control.escalated_frac", float64(escalated)/float64(pkts), "ratio")
	rep.set("trace.overhead_ms_per_op", median(batchMS)-untracedMS, "ms")

	// The switch alone: ProcessBatchAt over the parsed trace.
	sums := make([]packet.Summary, len(node.trace))
	fp := packet.NewFlowParser()
	for i := range node.trace {
		if err := fp.Parse(node.trace[i].Data, &sums[i]); err != nil {
			return err
		}
	}
	sw := dataplane.NewSwitch(dataplane.DefaultResources())
	if err := sw.Load(node.drop); err != nil {
		return err
	}
	if err := sw.LoadEnsemble(node.ens); err != nil {
		return err
	}
	out := make([]dataplane.Verdict, 0, len(sums))
	const reps = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := rep.tr.timed("dataplane.process_batch", func() {
		for r := 0; r < reps; r++ {
			out = sw.ProcessBatchAt(nil, sums, out[:0])
		}
	})
	runtime.ReadMemStats(&after)
	n := float64(reps * len(sums))
	rep.set("dataplane.process_ns_per_pkt", float64(d.Nanoseconds())/n, "ns")
	rep.set("dataplane.allocs_per_pkt", float64(after.Mallocs-before.Mallocs)/n, "count")
	return nil
}
