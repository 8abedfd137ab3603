package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"upcxx/internal/agg"
	"upcxx/internal/core"
	"upcxx/internal/segment"
)

// gups: the paper's §V-A random-access benchmark on the real wire. Two
// ranks (one per core) over flat loopback TCP share a table at least
// four times the last-level cache. Phase 1 streams HPCC RandomAccess
// updates — the HPCC LFSR stream, a 1024-update lookahead per round
// and one Advance per round — as aggregated AggXor64s. Phase 2 keeps a
// window of registered-task RPC futures reading random remote table
// words. Verification is HPCC's: the benchmark replays every update
// stream serially onto the table, which must then read T[i] == i, and
// every RPC read is checked against the table as phase 1 left it.

const (
	gupsRanks      = 2
	gupsPoly       = 7    // HPCC's LFSR polynomial
	gupsLookahead  = 1024 // HPCC's update lookahead: one Advance per round
	gupsEpochRound = 64   // rounds per epoch, the unit of the timed loop
	gupsWarmEpochs = 8    // untimed, so the adaptive aggregator settles
	gupsWindow     = 64   // outstanding RPC futures per rank in phase 2
	gupsSetups     = 1    // set-up trials per repetition; the last runs the workload
	// issueSample is how often (in updates) the traced run times one
	// AggXor64 call.
	issueSample = 64
)

// gupsReplay is the work the traced run repeats: each rank's number of
// timed epochs.
type gupsReplay struct{ epochs []int }

// readTask returns the table word at the offset in args on the rank it
// runs on.
var readTask = core.RegisterTask("perfbench.gups.read", func(me *core.Rank, _ int, args []byte) []byte {
	off := binary.LittleEndian.Uint64(args)
	v := core.Read(me, core.PtrAt[uint64](me.ID(), off))
	return binary.LittleEndian.AppendUint64(nil, v)
})

func hpccNext(x uint64) uint64 {
	if int64(x) < 0 {
		return x<<1 ^ gupsPoly
	}
	return x << 1
}

// gupsStart is rank r's stream start: any non-zero LFSR state.
func gupsStart(seed uint64, r int) uint64 { return splitmix64(seed*31+uint64(r)) | 1 }

// gupsTableWords is the table size in words: the power of two at or
// above four times the last-level cache (or 2^16 words for tests).
func gupsTableWords(small bool) uint64 {
	if small {
		return 1 << 16
	}
	return 1 << bits.Len64(uint64(4*llcBytes()/8)-1)
}

type gupsRank struct {
	epochs  int       // timed epochs done
	reads   []uint64  // phase-2 RPC results, in issue order
	rtts    []float64 // phase-2 RPC round trips, µs
	readyAt time.Time
	ph1     [2]time.Time
	ph2     [2]time.Time
	snaps   [2]snap // rank 0: phase 1 start/end
	waitNs  [4]int64
	rxBytes int64 // traced: bytes the rx path wrote in phase 1
}

func runGups(p params, tr *tracer, replay any) (*outcome, error) {
	words := gupsTableWords(p.small)
	per := words / gupsRanks
	perBits := uint(bits.Len64(per) - 1)
	epochUpdates := gupsEpochRound * gupsLookahead
	warm := gupsWarmEpochs
	setups := gupsSetups
	if p.small {
		warm, setups = 1, 1
	}
	if tr != nil {
		setups = 1 // set-up figures come from the untraced run
	}
	phase1 := time.Duration(0.6 * p.seconds * float64(time.Second))
	phase2 := time.Duration(0.4 * p.seconds * float64(time.Second))
	fixed, _ := replay.(*gupsReplay)

	o := &outcome{layer: map[string]float64{}, sizes: map[string]any{
		"gups_ranks": gupsRanks, "gups_table_bytes": words * 8, "gups_llc_bytes": llcBytes(),
		"gups_lookahead": gupsLookahead, "gups_epoch_updates": epochUpdates,
		"gups_warm_epochs": warm, "gups_rpc_window": gupsWindow,
	}}
	// Each rank's table is its segment's first allocation, so the
	// offsets agree; runGups checks that they do.
	offs := make([]uint64, gupsRanks)
	prep := func(r int, seg *segment.Segment) {
		off, err := seg.Alloc(per * 8)
		if err != nil {
			panic(err)
		}
		offs[r] = off
		t := segment.Slice[uint64](seg, off, int(per))
		base := uint64(r) * per
		for i := range t {
			t[i] = base + uint64(i)
		}
	}
	spec := meshSpec{ranks: gupsRanks, segBytes: int(per*8) + 1<<16,
		cfg: core.Config{Agg: agg.Config{Adaptive: true}}, prep: prep}

	var run *meshRun
	var rs []*gupsRank
	for trial := 0; trial < setups; trial++ {
		last := trial == setups-1
		if last {
			spec.tr = tr
		}
		rs = make([]*gupsRank, gupsRanks)
		for i := range rs {
			rs[i] = &gupsRank{}
		}
		var err error
		run, err = runMesh(spec, func(me *core.Rank, env *rankEnv) {
			g := rs[me.ID()]
			me.Barrier()
			g.readyAt = time.Now()
			if !last {
				return
			}
			gupsBody(me, env, g, p, fixed, offs[me.ID()], per, perBits, warm, phase1, phase2)
		})
		if err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, rs[0].readyAt.Sub(run.start).Seconds())
		o.meshS = append(o.meshS, run.meshDone.Seconds())
		o.readyS = append(o.readyS, rs[0].readyAt.Sub(run.start).Seconds()-run.meshDone.Seconds())
		if !last {
			run.release()
			releaseMemory()
		}
	}

	// Verification, on the tables as the job left them.
	tables := make([][]uint64, gupsRanks)
	for r := range tables {
		if offs[r] != offs[0] {
			return nil, fmt.Errorf("gups: table offsets differ across ranks: %v", offs)
		}
		tables[r] = segment.Slice[uint64](run.segs[r], offs[r], int(per))
	}
	word := func(idx uint64) *uint64 { return &tables[idx>>perBits][idx&(per-1)] }
	var sum uint64
	for r := range tables {
		for i, v := range tables[r] {
			sum += splitmix64(v ^ uint64(r)<<40 ^ uint64(i))
		}
	}
	o.checksum = sum
	var updates, reads, badReads int64
	for r, g := range rs {
		rng := splitmix64(p.seed*131 + uint64(r))
		for _, got := range g.reads {
			rng = splitmix64(rng)
			tgt, off := gupsReadTarget(rng, r, per)
			if got != tables[tgt][off] {
				badReads++
			}
		}
		reads += int64(len(g.reads))
	}
	for r, g := range rs {
		ran := gupsStart(p.seed, r)
		n := (warm + g.epochs) * epochUpdates
		for j := 0; j < n; j++ {
			ran = hpccNext(ran)
			*word(ran & (words - 1)) ^= ran
		}
		updates += int64(n)
		progress.Add(1)
	}
	var badWords int64
	for r := range tables {
		base := uint64(r) * per
		for i, v := range tables[r] {
			if v != base+uint64(i) {
				badWords++
			}
		}
	}
	run.release()
	o.attempted = updates + reads
	o.failed = badWords + badReads
	if badWords > 0 || badReads > 0 {
		fmt.Printf("gups verification: %d table words wrong after replay, %d of %d RPC reads wrong\n",
			badWords, badReads, reads)
	}

	// Metrics.
	g0 := rs[0]
	var timed int64
	rep := &gupsReplay{}
	var rtts []float64
	for _, g := range rs {
		timed += int64(g.epochs * epochUpdates)
		rep.epochs = append(rep.epochs, g.epochs)
		rtts = append(rtts, g.rtts...)
	}
	o.replay = rep
	p1 := g0.ph1[1].Sub(g0.ph1[0]).Seconds()
	p2 := g0.ph2[1].Sub(g0.ph2[0]).Seconds()
	o.opsCount = float64(timed)
	o.opsPerS = float64(timed) / p1
	rpcsPerS := float64(reads) / p2
	o.p50us = quantile(rtts, 0.5)
	o.samples = map[string][]float64{"rpc": rtts}
	o.named = []namedMetric{
		{name: "updates_per_s", unit: "1/s", src: "ops"},
		{name: "rpcs_per_s", unit: "1/s", value: rpcsPerS, n: int(reads)},
		{name: "rpc_p50_us", unit: "us", src: "rpc", q: 0.5},
		{name: "rpc_p99_us", unit: "us", src: "rpc", q: 0.99},
		{name: "table_bytes", unit: "B", value: float64(words * 8)},
		{name: "llc_bytes", unit: "B", value: float64(llcBytes())},
	}
	o.resolve()
	ph1 := g0.snaps[0].to(g0.snaps[1])
	ph1.counterMetrics(float64(timed), o.layer)
	o.layer["agg.maxops_avg"] = run.counterSum("agg_maxops_avg") / gupsRanks
	o.layer["spmd.mesh_s"] = median(o.meshS)
	o.layer["spmd.ready_s"] = median(o.readyS)
	o.named = append(o.named,
		namedMetric{name: "agg.ops_per_batch", unit: "count", value: o.layer["agg.ops_per_batch"]},
		namedMetric{name: "transport.tx_frames_per_op", unit: "count", value: o.layer["transport.tx_frames_per_op"]})
	if tr != nil {
		var ws [2]int64
		for _, g := range rs {
			ws[0] += g.waitNs[1] - g.waitNs[0]
			ws[1] += g.waitNs[3] - g.waitNs[2]
		}
		o.layer["gasnet.wait_frac"] = float64(ws[0]+ws[1]) / (gupsRanks * (p1 + p2) * 1e9)
		o.layer["segment.xor64_ns"] = tr.merged("segment.xor64").mean()
		o.layer["agg.issue_ns_per_op"] = tr.merged("agg.xor64").mean()
		o.layer["core.advance_ns"] = tr.merged("core.advance").mean()
		rtt := tr.merged("core.rpc")
		o.layer["core.rpc_rtt_p50_us"] = rtt.quantile(0.5) / 1e3
		o.layer["core.rpc_rtt_p99_us"] = rtt.quantile(0.99) / 1e3
		b := tr.merged("gasnet.batch_rtt")
		o.layer["gasnet.batch_rtt_p50_us"] = b.quantile(0.5) / 1e3
		o.layer["gasnet.batch_rtt_p99_us"] = b.quantile(0.99) / 1e3
		bar := tr.merged("gasnet.barrier")
		o.layer["gasnet.barrier_p50_us"] = bar.quantile(0.5) / 1e3
		o.layer["gasnet.barrier_p99_us"] = bar.quantile(0.99) / 1e3
		o.layer["gasnet.allgather_p50_us"] = tr.merged("gasnet.allgather").quantile(0.5) / 1e3
		var rx int64
		for _, g := range rs {
			rx += g.rxBytes
		}
		o.layer["segment.rx_bytes_per_op"] = float64(rx) / float64(timed)
	}
	o.overheadFrac = func(u, t *outcome) float64 { return u.opsPerS/t.opsPerS - 1 }
	o.path = []string{"gups.round", "agg.xor64", "gasnet.xor64", "segment.xor64", "gasnet.send_batch",
		"core.advance", "gasnet.poll", "gasnet.batch_rx", "gasnet.batch_rtt", "core.rpc", "gasnet.wait"}
	return o, nil
}

// gupsReadTarget maps one draw of a rank's read stream to a remote
// rank and a word index in its table part.
func gupsReadTarget(x uint64, r int, per uint64) (tgt int, idx uint64) {
	tgt = (r + 1 + int(x%uint64(gupsRanks-1))) % gupsRanks
	return tgt, (x >> 8) % per
}

func gupsBody(me *core.Rank, env *rankEnv, g *gupsRank, p params, fixed *gupsReplay,
	tableOff, per uint64, perBits uint, warm int, phase1, phase2 time.Duration) {
	r := me.ID()
	tk := env.tk
	mask := per*gupsRanks - 1
	ran := gupsStart(p.seed, r)
	var n uint64
	epoch := func() {
		for round := 0; round < gupsEpochRound; round++ {
			tk.begin("gups.round", 0)
			for j := 0; j < gupsLookahead; j++ {
				ran = hpccNext(ran)
				idx := ran & mask
				ptr := core.PtrAt[uint64](int(idx>>perBits), tableOff+(idx&(per-1))*8)
				if tk != nil && n%issueSample == 0 {
					tk.begin("agg.xor64", 0)
					core.AggXor64(me, ptr, ran, nil)
					tk.end()
				} else {
					core.AggXor64(me, ptr, ran, nil)
				}
				n++
			}
			tk.begin("core.advance", 0)
			me.Advance()
			tk.end()
			tk.end()
		}
		progress.Add(1)
	}
	for e := 0; e < warm; e++ {
		epoch()
	}

	// Phase 1: timed updates.
	me.Barrier()
	g.ph1[0] = time.Now()
	if r == 0 {
		g.snaps[0] = takeSnap()
	}
	g.waitNs[0] = waitNs(tk)
	if env.mem != nil {
		g.rxBytes -= env.mem.rxBytes
	}
	deadline := g.ph1[0].Add(phase1)
	for (fixed == nil && time.Now().Before(deadline)) || (fixed != nil && g.epochs < fixed.epochs[r]) {
		epoch()
		g.epochs++
	}
	me.Barrier()
	g.ph1[1] = time.Now()
	g.waitNs[1] = waitNs(tk)
	if env.mem != nil {
		g.rxBytes += env.mem.rxBytes
	}
	if r == 0 {
		g.snaps[1] = takeSnap()
	}

	// Phase 2: a window of RPC futures reading random remote words,
	// collected in issue order so the reads stay aligned with the stream.
	rng := splitmix64(p.seed*131 + uint64(r))
	futs := make([]*core.Future[[]byte], gupsWindow)
	issued := make([]time.Time, gupsWindow)
	issuedTr := make([]int64, gupsWindow)
	collect := func(i int) {
		v := futs[i].Get()
		g.rtts = append(g.rtts, float64(time.Since(issued[i]))/1e3)
		if tk != nil {
			tk.async("core.rpc", issuedTr[i], tk.tr.now(), 0, 0)
		}
		g.reads = append(g.reads, binary.LittleEndian.Uint64(v))
		futs[i] = nil
	}
	me.Barrier()
	g.ph2[0] = time.Now()
	g.waitNs[2] = waitNs(tk)
	deadline = g.ph2[0].Add(phase2)
	var args [8]byte
	for k := 0; ; k++ {
		i := k % gupsWindow
		if futs[i] != nil {
			collect(i)
		}
		if i == 0 {
			progress.Add(1)
			if time.Now().After(deadline) {
				break
			}
		}
		rng = splitmix64(rng)
		tgt, idx := gupsReadTarget(rng, r, per)
		binary.LittleEndian.PutUint64(args[:], tableOff+idx*8)
		issued[i] = time.Now()
		if tk != nil {
			issuedTr[i] = tk.tr.now()
		}
		futs[i] = core.AsyncTaskFuture(me, tgt, readTask, args[:])
	}
	for i := 1; i < gupsWindow; i++ {
		if futs[i] != nil {
			collect(i)
		}
	}
	me.Barrier()
	g.ph2[1] = time.Now()
	g.waitNs[3] = waitNs(tk)
}

func waitNs(tk *track) int64 {
	if tk == nil {
		return 0
	}
	return tk.waitNs
}
