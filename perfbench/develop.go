package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/core"
	"campuslab/internal/dataplane"
	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/privacy"
	"campuslab/internal/roadtest"
	"campuslab/internal/traffic"
	"campuslab/internal/xai"
)

// The develop workload is the paper's slow loop, one round at a time: a
// fresh lab collects campus + DNS-amplification traffic through the
// privacy enforcer, develops a deployable model (Figure 2) and road-tests
// it at the data-plane tier on a held-out episode. Rounds cycle through
// developScenarios collection scenarios derived from the workload seed, so
// a run's median round averages over several draws of campus traffic, and
// every scenario is developed at least twice.

const (
	developTarget    = traffic.LabelDNSAmp
	developScenarios = 10
	developTailQ     = 0.9
)

// developSpec is the fixed acceptance bar every round must meet.
var developSpec = struct {
	minTestAccuracy float64
	road            roadtest.Spec
}{
	minTestAccuracy: 0.95,
	road:            roadtest.Spec{MinRecall: 0.9, MaxCollateral: 0.02},
}

type developScenario struct {
	seed    int64 // Develop's seed for this scenario
	collect []traffic.Frame
}

type developInputs struct {
	plan      *traffic.AddressPlan
	scenarios [developScenarios]developScenario
	heldOut   []traffic.Frame // the road-test episode, shared by all rounds
}

func genDevelop(seed int64) (developInputs, error) {
	plan := traffic.DefaultPlan(40)
	in := developInputs{plan: plan}
	for i := range in.scenarios {
		collect, err := campusScenario(plan, seed, 10+i, 10000,
			attackSpec{kind: developTarget, victim: 3 + i, n: 8000, start: 0.15, dur: 0.75})
		if err != nil {
			return in, err
		}
		in.scenarios[i] = developScenario{seed: subSeed(seed, 50+i), collect: collect}
	}
	var err error
	in.heldOut, err = campusScenario(plan, seed, 30, 10000,
		attackSpec{kind: developTarget, victim: 11, n: 1200, start: 0.25, dur: 0.5})
	if err != nil {
		return in, err
	}
	return in, nil
}

func (in *developInputs) digest() string {
	var sets [][]traffic.Frame
	for _, sc := range in.scenarios {
		sets = append(sets, sc.collect)
	}
	sets = append(sets, in.heldOut)
	return frameDigest(sets...)
}

func newDevelopLab(in *developInputs, workers int) (*core.Lab, error) {
	return core.NewLab(core.Config{
		Name: "bench", Plan: in.plan, Workers: workers,
		Policy: privacy.Policy{Name: "bench", Scope: privacy.AnonInternal},
	})
}

func developConfig(sc *developScenario, workers int) core.DevelopConfig {
	return core.DevelopConfig{
		Target: developTarget, ForestTrees: 30, ForestDepth: 10, DeployDepth: 4,
		Seed: sc.seed, Workers: workers,
	}
}

// roundOutcome is what must repeat exactly for a scenario.
type roundOutcome struct {
	rulesHash   string
	forestNodes int
}

func rulesHash(rules []string) string {
	h := sha256.Sum256([]byte(strings.Join(rules, "\n")))
	return hex.EncodeToString(h[:8])
}

func runDevelop(cfg runConfig, rep *report) error {
	var genTimes []float64
	in, err := setupMedian(rep, 3, func() (developInputs, string, error) {
		t0 := time.Now()
		in, err := genDevelop(cfg.seed)
		genTimes = append(genTimes, time.Since(t0).Seconds())
		return in, in.digest(), err
	}, func(developInputs) {})
	if err != nil {
		return err
	}
	rep.set("traffic.gen_s", median(genTimes), "s")

	outcomes := make(map[int]roundOutcome)
	checkRound := func(i int, dep *core.Deployment, rt *roadtest.Report) {
		sc := i % len(in.scenarios)
		got := roundOutcome{rulesHash(dep.Rules), dep.BlackBox.TotalNodes()}
		if want, ok := outcomes[sc]; ok {
			rep.check(got == want, "round %d (scenario %d): rules %s/%d nodes, earlier round %s/%d",
				i, sc, got.rulesHash, got.forestNodes, want.rulesHash, want.forestNodes)
		} else {
			outcomes[sc] = got
		}
		rep.check(dep.TestAccuracy >= developSpec.minTestAccuracy, "round %d: test accuracy %.4f < %.2f",
			i, dep.TestAccuracy, developSpec.minTestAccuracy)
		rep.check(rt.Passed(), "round %d: road test %s", i, rt.Summary())
	}

	// Untraced rounds: one Develop call each, as a user runs it.
	var roundMS []float64
	var frames uint64
	var busy time.Duration
	start := time.Now()
	for i := 0; time.Since(start) < phaseDuration(cfg) || i <= len(in.scenarios); i++ {
		sc := &in.scenarios[i%len(in.scenarios)]
		t0 := time.Now()
		lab, err := newDevelopLab(&in, cfg.workers)
		if err != nil {
			return err
		}
		cs, err := lab.Collect(&sliceGen{frames: sc.collect})
		if err != nil {
			rep.op(fmt.Errorf("collect: %w", err))
			continue
		}
		dep, err := lab.Develop(developConfig(sc, cfg.workers))
		if err != nil {
			rep.op(fmt.Errorf("develop: %w", err))
			continue
		}
		rt, err := lab.RoadTest(dep, control.TierDataPlane, &sliceGen{frames: in.heldOut}, developSpec.road)
		d := time.Since(t0)
		rep.op(err)
		if err != nil {
			continue
		}
		roundMS = append(roundMS, ms(d))
		frames += cs.Frames
		busy += d
		checkRound(i, dep, rt)
	}
	if len(roundMS) == 0 {
		return fmt.Errorf("no develop round completed")
	}
	// Rounds are too few for a percentile with ten samples beyond it. The
	// slowest round swings with a single hiccup of the host, so the tail
	// is the p90 round.
	rep.set("op_p50_ms", median(roundMS), "ms")
	rep.set("op_tail_ms", quantile(roundMS, developTailQ), "ms")
	rep.set("items_per_s", float64(frames)/busy.Seconds(), "1/s")
	if cfg.trace {
		return traceDevelop(cfg, rep, &in, median(roundMS), checkRound)
	}
	return nil
}

// traceDevelop repeats rounds with Develop's public steps called one by
// one inside spans, and checks the first round against Lab.Develop.
func traceDevelop(cfg runConfig, rep *report, in *developInputs, untracedMS float64,
	checkRound func(int, *core.Deployment, *roadtest.Report)) error {
	tr := rep.tr
	var collectS, datasetS, rows, fitS, nodes, extractS, fidelity, compileMS, roadS, roundMS []float64
	start := time.Now()
	for i := 0; time.Since(start) < phaseDuration(cfg) || i <= len(in.scenarios); i++ {
		sc := &in.scenarios[i%len(in.scenarios)]
		dcfg := developConfig(sc, cfg.workers)
		tr.setOp(int64(i))
		t0 := time.Now()
		endRound := tr.begin("bench.develop_round")
		lab, err := newDevelopLab(in, cfg.workers)
		if err != nil {
			return err
		}
		var collectErr error
		collectS = append(collectS, tr.timed("core.collect", func() {
			_, collectErr = lab.Collect(&sliceGen{frames: sc.collect})
		}).Seconds())
		var ds *features.Dataset
		datasetS = append(datasetS, tr.timed("features.from_packets", func() {
			ds = lab.PacketDataset(dcfg.Target, 1.0)
		}).Seconds())
		rows = append(rows, float64(ds.Len()))
		var train, test *features.Dataset
		tr.timed("features.split", func() {
			ds.Shuffle(dcfg.Seed)
			train, test = ds.Split(0.7)
		})
		var forest *ml.Forest
		var fitErr error
		fitS = append(fitS, tr.timed("ml.fit_forest", func() {
			forest, fitErr = ml.FitForest(train, 2, ml.ForestConfig{
				Trees: dcfg.ForestTrees, MaxDepth: dcfg.ForestDepth, Seed: dcfg.Seed, Workers: dcfg.Workers,
			})
		}).Seconds())
		if collectErr != nil || fitErr != nil {
			endRound()
			rep.op(fmt.Errorf("traced round %d: collect %v, fit %v", i, collectErr, fitErr))
			continue
		}
		nodes = append(nodes, float64(forest.TotalNodes()))
		var ex *xai.Extraction
		var exErr error
		extractS = append(extractS, tr.timed("xai.extract", func() {
			ex, exErr = xai.Extract(forest, train, xai.ExtractConfig{MaxDepth: dcfg.DeployDepth, Seed: dcfg.Seed + 1})
		}).Seconds())
		if exErr != nil {
			endRound()
			rep.op(fmt.Errorf("traced round %d: extract: %w", i, exErr))
			continue
		}
		fidelity = append(fidelity, ex.Fidelity)
		var drop, alert *dataplane.Program
		var dropErr, alertErr error
		compileMS = append(compileMS, ms(tr.timed("dataplane.compile", func() {
			drop, dropErr = dataplane.Compile(ex.Tree, features.PacketSchema, dataplane.CompileConfig{
				Name: "bench-drop", DropClasses: []int{1}, MinConfidence: 0.9,
			})
			alert, alertErr = dataplane.Compile(ex.Tree, features.PacketSchema, dataplane.CompileConfig{Name: "bench-alert"})
		})))
		if dropErr != nil || alertErr != nil {
			endRound()
			rep.op(fmt.Errorf("traced round %d: compile drop %v, alert %v", i, dropErr, alertErr))
			continue
		}
		dep := &core.Deployment{BlackBox: forest, Extraction: ex, DropProgram: drop, AlertProgram: alert}
		tr.timed("xai.rules", func() {
			dep.Rules = xai.RuleSet(ex.Tree, features.PacketSchema, func(c int) string {
				if c == 1 {
					return dcfg.Target.String()
				}
				return "benign"
			})
		})
		tr.timed("ml.evaluate", func() {
			dep.TrainAccuracy = ml.Evaluate(ex.Tree, train).Accuracy()
			dep.TestAccuracy = ml.Evaluate(ex.Tree, test).Accuracy()
			dep.BlackBoxTestAccuracy = ml.Evaluate(forest, test).Accuracy()
		})
		var rt *roadtest.Report
		var rtErr error
		roadS = append(roadS, tr.timed("roadtest.run", func() {
			rt, rtErr = lab.RoadTest(dep, control.TierDataPlane, &sliceGen{frames: in.heldOut}, developSpec.road)
		}).Seconds())
		endRound()
		roundMS = append(roundMS, ms(time.Since(t0)))
		rep.op(rtErr)
		if rtErr != nil {
			continue
		}
		checkRound(i, dep, rt)
		if i == 0 {
			checkAgainstDevelop(rep, in, sc, dcfg, dep)
		}
	}
	if len(roundMS) == 0 {
		return fmt.Errorf("no traced develop round completed")
	}
	rep.set("core.collect_s", median(collectS), "s")
	rep.set("features.from_packets_s", median(datasetS), "s")
	rep.set("features.rows", median(rows), "count")
	rep.set("ml.fit_forest_s", median(fitS), "s")
	rep.set("ml.forest_nodes", median(nodes), "count")
	rep.set("xai.extract_s", median(extractS), "s")
	rep.set("xai.fidelity", median(fidelity), "ratio")
	rep.set("dataplane.compile_ms", median(compileMS), "ms")
	rep.set("roadtest.run_s", median(roadS), "s")
	rep.set("trace.overhead_ms_per_op", median(roundMS)-untracedMS, "ms")
	return nil
}

// checkAgainstDevelop verifies that the step-by-step round built the same
// deployment Lab.Develop builds from the same store.
func checkAgainstDevelop(rep *report, in *developInputs, sc *developScenario, dcfg core.DevelopConfig, steps *core.Deployment) {
	lab, err := newDevelopLab(in, dcfg.Workers)
	if err == nil {
		_, err = lab.Collect(&sliceGen{frames: sc.collect})
	}
	var dep *core.Deployment
	if err == nil {
		dep, err = lab.Develop(dcfg)
	}
	rep.op(err)
	if err != nil {
		return
	}
	rep.check(rulesHash(dep.Rules) == rulesHash(steps.Rules) &&
		dep.BlackBox.TotalNodes() == steps.BlackBox.TotalNodes() &&
		dep.Extraction.Fidelity == steps.Extraction.Fidelity &&
		dep.TestAccuracy == steps.TestAccuracy,
		"step-by-step round differs from Lab.Develop: rules %s vs %s, nodes %d vs %d",
		rulesHash(steps.Rules), rulesHash(dep.Rules), steps.BlackBox.TotalNodes(), dep.BlackBox.TotalNodes())
}
