package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/fleet"
	"campuslab/internal/privacy"
	"campuslab/internal/traffic"
)

// The ingest workload is the fleet write path: pre-generated campus +
// attack frames are anonymized by the privacy enforcer and streamed by one
// fleet client, in closed loop, over loopback TCP to a fleet server whose
// store was opened by datastore.Recover with a WAL (FsyncInterval) and a v2
// cold tier. The hot cap forces a seal every few dozen batches, so the
// seal stall shows in the ack tail.

const (
	ingestBatch = 256 // frames per SendBatch
	// ingestHotCap seals every ingestHotCap/2/ingestBatch = 16 batches, so
	// about 6% of batches carry a seal and the p98 ack sits well inside
	// the seal mode, not on its edge.
	ingestHotCap = 8192
	ingestTailQ  = 0.98
)

// ingestCounts are the queries compared between the live and the
// recovered store.
var ingestCounts = []string{"udp", "tcp && tcp.syn && !tcp.ack", "dns && dns.qtype == ANY", "len > 1000"}

func genIngest(seed int64) ([]traffic.Frame, error) {
	plan := traffic.DefaultPlan(40)
	return campusScenario(plan, seed, 1, 20000,
		attackSpec{kind: traffic.LabelDNSAmp, victim: 5, n: 5000, start: 0.1, dur: 0.6},
		attackSpec{kind: traffic.LabelSYNFlood, victim: 9, n: 5000, start: 0.4, dur: 0.4})
}

// cycler hands out the pre-generated frames batch by batch, replaying the
// trace with shifted timestamps once it is exhausted, so the store sees
// one continuous stream.
type cycler struct {
	frames []traffic.Frame
	span   time.Duration
	pos    int
	lap    time.Duration
}

func newCycler(frames []traffic.Frame) *cycler {
	return &cycler{frames: frames, span: frames[len(frames)-1].TS + time.Millisecond}
}

func (c *cycler) next(dst []traffic.Frame, n int) []traffic.Frame {
	dst = dst[:0]
	for len(dst) < n {
		if c.pos == len(c.frames) {
			c.pos = 0
			c.lap += c.span
		}
		f := c.frames[c.pos]
		f.TS += c.lap
		dst = append(dst, f)
		c.pos++
	}
	return dst
}

// ingestNode is one durable store served by a fleet server, plus the
// campus client streaming to it.
type ingestNode struct {
	frames  []traffic.Frame
	durable datastore.DurableConfig
	store   *datastore.Store
	srv     *fleet.Server
	ln      net.Listener
	served  chan error
	client  *fleet.Client
	enf     *privacy.Enforcer
}

func ingestDurableConfig(dir string, workers int) datastore.DurableConfig {
	return datastore.DurableConfig{
		Dir: filepath.Join(dir, "wal"), Fsync: datastore.FsyncInterval, Workers: workers,
		Tier: datastore.TierPolicy{Dir: filepath.Join(dir, "tier"), HotPackets: ingestHotCap, Format: 2},
	}
}

func openIngestNode(frames []traffic.Frame, dir string, workers int) (*ingestNode, error) {
	n := &ingestNode{frames: frames, durable: ingestDurableConfig(dir, workers)}
	plan := traffic.DefaultPlan(40)
	var err error
	n.enf, err = privacy.NewEnforcer(privacy.Policy{
		Name: "bench", Scope: privacy.AnonInternal, CampusPrefix: plan.CampusPrefix,
	}, []byte("perfbench-campus-key"))
	if err != nil {
		return nil, err
	}
	n.store, _, err = datastore.Recover(n.durable)
	if err != nil {
		return nil, err
	}
	n.srv, err = fleet.NewServer(fleet.ServerConfig{Store: n.store, Workers: workers})
	if err != nil {
		n.store.CloseWAL()
		return nil, err
	}
	n.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.store.CloseWAL()
		return nil, err
	}
	n.served = make(chan error, 1)
	go func() { n.served <- n.srv.Serve(n.ln) }()
	n.client, err = fleet.DialCampus(fleet.ClientConfig{Addr: n.ln.Addr().String(), Campus: "bench"})
	if err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// close stops the client and server, waits for the server's goroutines
// and detaches the WAL.
func (n *ingestNode) close() error {
	if n.client != nil {
		n.client.Close()
	}
	n.ln.Close()
	n.srv.Close()
	serveErr := <-n.served
	walErr := n.store.CloseWAL()
	return errors.Join(serveErr, walErr)
}

// anonymize applies the collection policy to a batch in place: frame data
// is replaced by the enforcer's rewritten copy.
func (n *ingestNode) anonymize(batch []traffic.Frame) error {
	for i := range batch {
		out, err := n.enf.Apply(batch[i].Data)
		if err != nil {
			return err
		}
		batch[i].Data = out
	}
	return nil
}

// ingestLedger tracks what the store acknowledged.
type ingestLedger struct {
	offered, acked uint64
	firstID        uint64
	bytesUpTo      []uint64 // bytesUpTo[k] = bytes of the first k acked packets
}

func (l *ingestLedger) record(batch []traffic.Frame, first uint64, ingested int) error {
	l.offered += uint64(len(batch))
	if ingested != len(batch) {
		return fmt.Errorf("batch of %d frames acked %d", len(batch), ingested)
	}
	if len(l.bytesUpTo) == 0 {
		l.firstID = first
		l.bytesUpTo = append(l.bytesUpTo, 0)
	}
	if want := l.firstID + l.acked; first != want {
		return fmt.Errorf("batch acked from packet %d, want %d", first, want)
	}
	total := l.bytesUpTo[len(l.bytesUpTo)-1]
	for i := range batch {
		total += uint64(len(batch[i].Data))
		l.bytesUpTo = append(l.bytesUpTo, total)
	}
	l.acked += uint64(ingested)
	return nil
}

func (l *ingestLedger) wireBytes() uint64 { return l.bytesUpTo[len(l.bytesUpTo)-1] }

func runIngest(cfg runConfig, rep *report) error {
	var genTimes []float64
	builds := 0
	node, err := setupMedian(rep, 3, func() (*ingestNode, string, error) {
		t0 := time.Now()
		frames, err := genIngest(cfg.seed)
		genTimes = append(genTimes, time.Since(t0).Seconds())
		if err != nil {
			return nil, "", err
		}
		builds++
		n, err := openIngestNode(frames, filepath.Join(cfg.workDir, fmt.Sprintf("ingest-%d", builds)), cfg.workers)
		return n, frameDigest(frames), err
	}, func(n *ingestNode) {
		n.close()
		os.RemoveAll(filepath.Dir(n.durable.Dir))
	})
	if err != nil {
		return err
	}
	rep.set("traffic.gen_s", median(genTimes), "s")

	var (
		led     ingestLedger
		ackMS   []float64
		applyNS time.Duration
		batch   = make([]traffic.Frame, 0, ingestBatch)
		cyc     = newCycler(node.frames)
	)
	seals0 := node.store.TierStats()
	start := time.Now()
	for time.Since(start) < phaseDuration(cfg) {
		batch = cyc.next(batch, ingestBatch)
		t0 := time.Now()
		if err := node.anonymize(batch); err != nil {
			rep.op(err)
			continue
		}
		t1 := time.Now()
		ack, err := node.client.SendBatch(batch)
		d := time.Since(t1)
		applyNS += t1.Sub(t0)
		if err == nil {
			err = led.record(batch, ack.First, int(ack.Ingested))
		}
		rep.op(err)
		if err == nil {
			ackMS = append(ackMS, ms(d))
		}
	}
	elapsed := time.Since(start)
	if len(ackMS) == 0 {
		node.close()
		return fmt.Errorf("no batch was acked")
	}
	rep.set("op_p50_ms", median(ackMS), "ms")
	rep.set("op_tail_ms", tailQuantile(rep, "ack latency", ackMS, ingestTailQ), "ms")
	rep.set("items_per_s", float64(led.acked)/elapsed.Seconds(), "1/s")
	rep.set("privacy.apply_ns_per_frame", float64(applyNS.Nanoseconds())/float64(led.offered), "ns")
	ts := node.store.TierStats()
	rep.set("datastore.seal_batch_frac", float64(ts.Seals-seals0.Seals)/float64(len(ackMS)), "ratio")

	if cfg.trace {
		if err := traceIngest(cfg, rep, node, cyc, &led, median(ackMS)); err != nil {
			node.close()
			return err
		}
	}
	return finishIngest(rep, node, &led)
}

// traceIngest replays further batches in process, encode -> decode ->
// Store.AddBatchLinks, with spans around each call. Batches alternate
// between traced and untraced, so the tracing overhead is their gap; the
// gap between an untraced in-process batch (encode + decode + store) and
// the SendBatch round trip is the socket and server share.
func traceIngest(cfg runConfig, rep *report, node *ingestNode, cyc *cycler, led *ingestLedger, ackP50 float64) error {
	tr := rep.tr
	var (
		batch                      = make([]traffic.Frame, 0, ingestBatch)
		msg                        []byte
		encNS, decNS               time.Duration
		frames, msgBytes           uint64
		addMS, sealMS, onMS, offMS []float64
		seq                        uint64 = 1 << 40 // never reaches the server
	)
	start := time.Now()
	for i := 0; time.Since(start) < phaseDuration(cfg); i++ {
		tr.on = i%2 == 0
		tr.setOp(int64(i))
		batch = cyc.next(batch, ingestBatch)
		end := tr.begin("bench.ingest_batch")
		var err error
		tr.timed("privacy.apply", func() { err = node.anonymize(batch) })
		if err != nil {
			end()
			rep.op(err)
			continue
		}
		seq++
		enc := tr.timed("fleet.encode", func() {
			msg = fleet.AppendMessage(msg[:0], fleet.MsgBatch, fleet.EncodeBatch(seq, batch, nil))
		})
		var got []traffic.Frame
		var links []uint16
		dec := tr.timed("fleet.decode", func() {
			var payload []byte
			if _, payload, _, err = fleet.DecodeMessage(msg); err == nil {
				_, got, links, err = fleet.DecodeBatch(payload)
			}
		})
		if err != nil {
			end()
			rep.op(err)
			continue
		}
		before := node.store.TierStats().Seals
		var res datastore.IngestResult
		add := tr.timed("datastore.add_batch", func() { res, err = node.store.AddBatchLinks(got, links, cfg.workers) })
		end()
		inProcess := enc + dec + add
		if err == nil {
			err = led.record(batch, uint64(res.First), res.Ingested)
		}
		rep.op(err)
		if err != nil {
			continue
		}
		frames += uint64(len(batch))
		msgBytes += uint64(len(msg))
		encNS += enc
		decNS += dec
		if node.store.TierStats().Seals != before {
			sealMS = append(sealMS, ms(add))
		} else {
			addMS = append(addMS, ms(add))
		}
		if tr.on {
			onMS = append(onMS, ms(inProcess))
		} else {
			offMS = append(offMS, ms(inProcess))
		}
	}
	tr.on = true
	if frames == 0 {
		return fmt.Errorf("no traced batch was stored")
	}
	rep.set("fleet.encode_ns_per_frame", float64(encNS.Nanoseconds())/float64(frames), "ns")
	rep.set("fleet.decode_ns_per_frame", float64(decNS.Nanoseconds())/float64(frames), "ns")
	rep.set("fleet.frame_bytes_per_frame", float64(msgBytes)/float64(frames), "B")
	rep.set("datastore.add_batch_ms_p50", median(addMS), "ms")
	rep.set("datastore.seal_stall_ms", median(sealMS), "ms")
	rep.set("trace.overhead_ms_per_op", median(onMS)-median(offMS), "ms")
	rep.set("fleet.socket_server_ms_p50", ackP50-median(offMS), "ms")
	return nil
}

// finishIngest flushes and measures the node, stops it, recovers the
// directory as after a restart and checks that nothing acked was lost.
func finishIngest(rep *report, node *ingestNode, led *ingestLedger) error {
	st := node.store
	rep.op(st.FlushWAL())
	ss, ts := st.Stats(), st.TierStats()
	rep.check(ts.Err == nil, "tier error: %v", ts.Err)
	rep.check(ss.Packets+ss.ColdPackets == led.acked, "store holds %d hot + %d cold, %d acked",
		ss.Packets, ss.ColdPackets, led.acked)
	live := make([]int, len(ingestCounts))
	for i, q := range ingestCounts {
		n, err := st.CountExpr(q)
		rep.op(err)
		live[i] = n
	}
	walBytes, err := dirBytes(node.durable.Dir)
	if err != nil {
		node.close()
		return err
	}
	tierBytes, err := dirBytes(node.durable.Tier.Dir)
	if err != nil {
		node.close()
		return err
	}
	wire := float64(led.wireBytes())
	rep.set("datastore.disk_bytes_per_wire_byte", float64(walBytes+tierBytes)/wire, "ratio")
	rep.set("datastore.wal_bytes_per_wire_byte", float64(walBytes)/wire, "ratio")
	if ts.SealedBelow > datastore.PacketID(led.firstID) {
		sealed := led.bytesUpTo[uint64(ts.SealedBelow)-led.firstID]
		rep.set("datastore.cold_bytes_per_sealed_byte", float64(ts.ColdBytes)/float64(sealed), "ratio")
	}
	rep.set("datastore.seals", float64(ts.Seals), "count")
	rep.set("datastore.sealed_packets", float64(ts.SealedPackets), "count")
	rep.set("datastore.stored_frac", float64(led.acked)/float64(led.offered), "ratio")
	if err := node.close(); err != nil {
		return fmt.Errorf("stopping the ingest node: %w", err)
	}

	// Restart: a fresh process recovers the directory, so the replay's
	// time and memory are its own, not mixed with the serving process's.
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out, err := exec.Command(exe, "--recover-dir", filepath.Dir(node.durable.Dir)).Output()
	if err != nil {
		return fmt.Errorf("recovery process: %w", err)
	}
	var rec recovery
	if err := json.Unmarshal(out, &rec); err != nil {
		return fmt.Errorf("recovery process output %q: %w", out, err)
	}
	if rec.Err != "" {
		rep.op(errors.New(rec.Err))
		return nil
	}
	rep.op(nil)
	// The history to recover grows with ingest throughput, so its time
	// and memory are reported per packet acked: a faster ingest does not
	// read as a slower recovery.
	acked := float64(led.acked)
	rep.set("datastore.recover_ns_per_packet", rec.Seconds*1e9/acked, "ns")
	rep.set("datastore.recover_rss_mb_per_100k_packets", rec.MaxRSSMB*1e5/acked, "MB")
	rep.set("datastore.recover_wal_packets", float64(rec.WALPackets), "count")
	rep.set("datastore.recover_wal_frac", float64(rec.WALPackets)/acked, "ratio")
	rep.check(rec.Hot+rec.Cold == led.acked, "recovered %d hot + %d cold, %d acked", rec.Hot, rec.Cold, led.acked)
	rep.check(!rec.Torn, "recovery found a torn WAL")
	for j, q := range ingestCounts {
		rep.check(j < len(rec.Counts) && rec.Counts[j] == live[j], "CountExpr(%q): recovered %v, live %d", q, rec.Counts, live[j])
	}
	return nil
}

// recovery is what the restarted process reports.
type recovery struct {
	Seconds    float64 `json:"seconds"`
	WALPackets uint64  `json:"wal_packets"`
	Torn       bool    `json:"torn"`
	Hot        uint64  `json:"hot"`
	Cold       uint64  `json:"cold"`
	Counts     []int   `json:"counts"`
	MaxRSSMB   float64 `json:"max_rss_mb"`
	Err        string  `json:"error,omitempty"`
}

// recoverProcess is the restarted process: it recovers the ingest node
// directory dir with datastore.Recover, runs the check queries and prints
// a recovery as JSON.
func recoverProcess(dir string, workers int) int {
	var rec recovery
	t0 := time.Now()
	st, rs, err := datastore.Recover(ingestDurableConfig(dir, workers))
	rec.Seconds = time.Since(t0).Seconds()
	if err == nil {
		ss := st.Stats()
		rec.WALPackets, rec.Torn, rec.Hot, rec.Cold = rs.WALPackets, rs.Torn, ss.Packets, ss.ColdPackets
		for _, q := range ingestCounts {
			n, qerr := st.CountExpr(q)
			err = errors.Join(err, qerr)
			rec.Counts = append(rec.Counts, n)
		}
		err = errors.Join(err, st.CloseWAL())
	}
	if err != nil {
		rec.Err = err.Error()
	}
	rec.MaxRSSMB = maxRSSMB()
	if err := json.NewEncoder(os.Stdout).Encode(&rec); err != nil {
		return 1
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (uint64, error) {
	var total uint64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += uint64(info.Size())
		return nil
	})
	return total, err
}
