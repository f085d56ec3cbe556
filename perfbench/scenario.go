package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"campuslab/internal/traffic"
)

// attackSpec places an attack episode of exactly n frames on a benign
// campus stream: it starts at start and lasts about dur, both given as
// fractions of the benign stream's time span.
type attackSpec struct {
	kind       traffic.Label
	victim     int // plan host index
	n          int
	start, dur float64
}

// campusScenario merges exactly benign campus frames with the attacks, each
// exactly its n frames long. The campus generator's flow sizes are heavy
// tailed, so a fixed duration yields a frame count that swings with the
// seed; fixing every count instead keeps the work and the attack share of
// a workload the same for every seed.
func campusScenario(plan *traffic.AddressPlan, seed int64, stream, benign int, attacks ...attackSpec) ([]traffic.Frame, error) {
	campus, err := generate(traffic.NewCampus(traffic.Profile{
		Plan: plan, FlowsPerSecond: 60, Duration: time.Hour, Seed: subSeed(seed, stream),
	}), benign)
	if err != nil {
		return nil, err
	}
	span := float64(campus[len(campus)-1].TS)
	gens := []traffic.Generator{&sliceGen{frames: campus}}
	total := benign
	for i, a := range attacks {
		dur := time.Duration(a.dur * span)
		frames, err := generate(traffic.NewAttack(traffic.AttackConfig{
			Kind: a.kind, Plan: plan, Victim: plan.Host(a.victim),
			Start: time.Duration(a.start * span), Duration: 2 * dur, Rate: float64(a.n) / dur.Seconds(),
			Seed: subSeed(seed, 64*stream+i+1),
		}), a.n)
		if err != nil {
			return nil, fmt.Errorf("%v attack: %w", a.kind, err)
		}
		gens = append(gens, &sliceGen{frames: frames})
		total += a.n
	}
	return generate(traffic.NewMerge(gens...), total)
}

// frameDigest hashes generated frames, ground truth included, and names
// their count and size.
func frameDigest(sets ...[]traffic.Frame) string {
	h := sha256.New()
	var count, bytes int
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, set := range sets {
		word(uint64(len(set)))
		for i := range set {
			f := &set[i]
			word(uint64(f.TS))
			word(uint64(f.Dir)<<16 | uint64(f.Label)<<8 | boolBit(f.Actor))
			word(f.FlowID)
			word(uint64(len(f.Data)))
			h.Write(f.Data)
			bytes += len(f.Data)
		}
		count += len(set)
	}
	return fmt.Sprintf("%s (%d frames, %d bytes)", hex.EncodeToString(h.Sum(nil)[:12]), count, bytes)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// generate takes exactly n frames from a generator. Fixing the count, not
// the scenario length, keeps the work per seed the same.
func generate(g traffic.Generator, n int) ([]traffic.Frame, error) {
	out := make([]traffic.Frame, 0, n)
	var f traffic.Frame
	for len(out) < n && g.Next(&f) {
		out = append(out, f)
	}
	if len(out) < n {
		return nil, fmt.Errorf("scenario produced %d frames, want %d", len(out), n)
	}
	return out, nil
}

// sliceGen replays pre-generated frames as a traffic.Generator. Frame data
// is shared, not copied: no consumer in this benchmark writes to it.
type sliceGen struct {
	frames []traffic.Frame
	next   int
}

func (g *sliceGen) Next(f *traffic.Frame) bool {
	if g.next >= len(g.frames) {
		return false
	}
	*f = g.frames[g.next]
	g.next++
	return true
}

// subSeed derives an independent seed for one input stream of a workload.
func subSeed(seed int64, stream int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x >> 1)
}
