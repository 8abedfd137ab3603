package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"upcxx/internal/core"
	"upcxx/internal/segment"
)

// halo: the paper's §V-B ghost exchange on the two-level conduit. Four
// ranks as two virtual hosts of two, in a 1-D ring, so every rank has
// one neighbour on its own host (a direct store into the shared
// segment) and one on the other (a wire put). Each step puts one 64 KiB
// face to each neighbour with AsyncCopy and an event, then runs a
// barrier and an 8-byte allreduce. Ghost faces are double-buffered by
// step parity and checked against the senders' generated values after
// every step.

const (
	haloRanks     = 4
	haloPPN       = 2
	haloFaceWords = 8192 // 64 KiB faces
	haloWarmSteps = 200
	haloSetups    = 2 // set-up trials per repetition; the last runs the workload
	stopBit       = uint64(1) << 63
)

// haloReplay is the work the traced run repeats: the timed step count.
type haloReplay struct{ steps int }

// haloBase is the generator of the face rank r sends in direction d
// (0 = to its left neighbour, 1 = to its right) at step s; word k of
// the face is base + k*golden.
func haloBase(seed uint64, r, s, d int) uint64 {
	return splitmix64(seed<<20 ^ uint64(s)<<4 ^ uint64(r)<<1 ^ uint64(d))
}

const golden = 0x9E3779B97F4A7C15

type haloRank struct {
	readyAt  time.Time
	steps    int       // timed steps
	stepUs   []float64 // timed step durations
	stepAt   []int64   // when each timed step ended (monoNs)
	wins     []window  // rank 0: the timed phase's windows
	bad      int64     // ghost words that did not match
	checksum uint64
	t        [2]time.Time
	snaps    [2]snap // rank 0
	waitNs   [2]int64
	rxBytes  int64
}

type haloLayout struct {
	face  [2]uint64    // outgoing faces: to left, to right
	ghost [2][2]uint64 // [from left, from right][step parity]
}

func runHalo(p params, tr *tracer, replay any) (*outcome, error) {
	fixed, _ := replay.(*haloReplay)
	faceWords, warm, setups := haloFaceWords, haloWarmSteps, haloSetups
	if p.small {
		faceWords, warm, setups = 512, 5, 1
	}
	if tr != nil {
		setups = 1
	}
	faceBytes := uint64(faceWords * 8)
	timed := time.Duration(p.seconds * float64(time.Second))
	o := &outcome{layer: map[string]float64{}, sizes: map[string]any{
		"halo_ranks": haloRanks, "halo_procs_per_host": haloPPN, "halo_face_bytes": faceBytes,
		"halo_warm_steps": warm,
	}}

	// Identical allocation order on every rank gives identical offsets;
	// runHalo checks that it did.
	lays := make([]haloLayout, haloRanks)
	prep := func(r int, seg *segment.Segment) {
		alloc := func() uint64 {
			off, err := seg.Alloc(faceBytes)
			if err != nil {
				panic(err)
			}
			return off
		}
		lay := &lays[r]
		lay.face = [2]uint64{alloc(), alloc()}
		for i := range lay.ghost {
			lay.ghost[i] = [2]uint64{alloc(), alloc()}
		}
	}
	var rs []*haloRank
	for trial := 0; trial < setups; trial++ {
		last := trial == setups-1
		dir := filepath.Join(p.workdir, fmt.Sprintf("shm-%d-%d", os.Getpid(), trial))
		spec := meshSpec{ranks: haloRanks, ppn: haloPPN, segBytes: int(8*faceBytes) + 1<<16,
			shmDir: dir, prep: prep}
		if last {
			spec.tr = tr
		}
		rs = make([]*haloRank, haloRanks)
		for i := range rs {
			rs[i] = &haloRank{}
		}
		run, err := runMesh(spec, func(me *core.Rank, env *rankEnv) {
			h := rs[me.ID()]
			me.Barrier()
			h.readyAt = time.Now()
			if last {
				haloBody(me, env, h, p.seed, lays[me.ID()], faceWords, warm, timed, fixed)
			}
		})
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		for _, l := range lays {
			if l != lays[0] {
				return nil, fmt.Errorf("halo: segment layouts differ across ranks: %v", lays)
			}
		}
		o.setupS = append(o.setupS, rs[0].readyAt.Sub(run.start).Seconds())
		o.meshS = append(o.meshS, run.meshDone.Seconds())
		o.readyS = append(o.readyS, rs[0].readyAt.Sub(run.start).Seconds()-run.meshDone.Seconds())
		if !last {
			releaseMemory()
		}
	}

	h0 := rs[0]
	steps := h0.steps
	wall := h0.t[1].Sub(h0.t[0]).Seconds()
	var stepUs []float64
	var stepAt []int64
	for _, h := range rs {
		stepUs = append(stepUs, h.stepUs...)
		stepAt = append(stepAt, h.stepAt...)
		o.failed += h.bad
		if h.checksum != h0.checksum {
			o.failed++ // ranks disagree on the reduced values
		}
	}
	// Windows first: quantile below sorts stepUs.
	o.wins, o.winRate = windowStats(h0.wins, stepAt, stepUs, haloRanks), true
	o.checksum = h0.checksum
	o.attempted = int64((warm + steps) * haloRanks * 2) // face deliveries
	o.replay = &haloReplay{steps: steps}
	o.opsCount = float64(steps)
	o.opsPerS = float64(steps) / wall
	o.p50us = quantile(stepUs, 0.5)
	gbps := float64(steps*haloRanks*2) * float64(faceBytes) / wall / 1e9
	o.samples = map[string][]float64{"step": stepUs}
	o.named = []namedMetric{
		{name: "steps_per_s", unit: "1/s", src: "ops"},
		{name: "step_p50_us", unit: "us", src: "step", q: 0.5},
		{name: "step_p99_us", unit: "us", src: "step", q: 0.99},
		{name: "halo_gb_per_s", unit: "GB/s", value: gbps, n: steps},
	}
	o.resolve()
	ph := h0.snaps[0].to(h0.snaps[1])
	ph.counterMetrics(float64(steps), o.layer)
	o.layer["gasnet.shm_msgs_per_step"] = ph.ctr["shm_tx_msgs"] / float64(steps)
	o.layer["spmd.mesh_s"] = median(o.meshS)
	o.layer["spmd.ready_s"] = median(o.readyS)
	if tr != nil {
		var wait, rx int64
		for _, h := range rs {
			wait += h.waitNs[1] - h.waitNs[0]
			rx += h.rxBytes
		}
		o.layer["gasnet.wait_frac"] = float64(wait) / (haloRanks * wall * 1e9)
		o.layer["segment.rx_bytes_per_op"] = float64(rx) / float64(steps)
		if w := tr.merged("segment.write"); rx > 0 {
			o.layer["segment.rx_write_ns_per_kib"] = float64(w.sum) / (float64(rx) / 1024)
		}
		o.layer["gasnet.put_intra_p50_us"] = tr.merged("gasnet.put_intra").quantile(0.5) / 1e3
		o.layer["gasnet.put_inter_p50_us"] = tr.merged("gasnet.put_inter").quantile(0.5) / 1e3
		bar := tr.merged("gasnet.barrier")
		o.layer["gasnet.barrier_p50_us"] = bar.quantile(0.5) / 1e3
		o.layer["gasnet.barrier_p99_us"] = bar.quantile(0.99) / 1e3
		o.layer["gasnet.allgather_p50_us"] = tr.merged("gasnet.allgather").quantile(0.5) / 1e3
		o.layer["core.copy_self_us"] = tr.merged("core.copy#self").quantile(0.5) / 1e3
		o.layer["core.barrier_self_us"] = tr.merged("core.barrier#self").quantile(0.5) / 1e3
		o.layer["core.allreduce_p50_us"] = tr.merged("core.allreduce").quantile(0.5) / 1e3
	}
	o.overheadFrac = func(u, t *outcome) float64 { return t.p50us/u.p50us - 1 }
	o.path = []string{"halo.step", "core.copy", "gasnet.get", "segment.read", "gasnet.put_intra",
		"gasnet.put_inter", "core.barrier", "gasnet.barrier", "core.allreduce", "gasnet.allgather",
		"gasnet.wait", "segment.write"}
	return o, nil
}

func haloBody(me *core.Rank, env *rankEnv, h *haloRank, seed uint64, lay haloLayout,
	faceWords, warm int, timed time.Duration, fixed *haloReplay) {
	r, tk := me.ID(), env.tk
	left, right := (r+haloRanks-1)%haloRanks, (r+1)%haloRanks
	faces := [2][]uint64{
		segment.Slice[uint64](env.seg, lay.face[0], faceWords),
		segment.Slice[uint64](env.seg, lay.face[1], faceWords),
	}
	var contrib uint64
	var deadline time.Time
	var clock *windowClock
	for s := 0; ; s++ {
		par := s % 2
		for d := range faces {
			b := haloBase(seed, r, s, d)
			for k := range faces[d] {
				faces[d][k] = b + uint64(k)*golden
			}
		}
		t := s - warm
		if t == 0 {
			me.Barrier()
			h.t[0] = time.Now()
			deadline = h.t[0].Add(timed)
			h.waitNs[0] = waitNs(tk)
			if env.mem != nil {
				h.rxBytes -= env.mem.rxBytes
			}
			if r == 0 {
				h.snaps[0] = takeSnap()
				clock = startWindows()
			}
		}
		if r == 0 && t >= 0 {
			if (fixed == nil && !time.Now().Before(deadline)) || (fixed != nil && t+1 >= fixed.steps) {
				contrib |= stopBit
			}
		}

		start := time.Now()
		tk.begin("halo.step", uint64(s)+1)
		ev := core.NewEvent()
		tk.begin("core.copy", uint64(s)+1)
		core.AsyncCopy(me, core.PtrAt[uint64](r, lay.face[0]), core.PtrAt[uint64](left, lay.ghost[1][par]), faceWords, ev)
		core.AsyncCopy(me, core.PtrAt[uint64](r, lay.face[1]), core.PtrAt[uint64](right, lay.ghost[0][par]), faceWords, ev)
		ev.Wait(me)
		tk.end()
		tk.begin("core.barrier", uint64(s)+1)
		me.Barrier()
		tk.end()
		tk.begin("core.allreduce", uint64(s)+1)
		res := core.TeamReduce(me.World(), contrib, func(a, b uint64) uint64 { return a ^ b })
		tk.end()
		tk.end()
		if t >= 0 {
			h.stepUs = append(h.stepUs, float64(time.Since(start))/1e3)
			h.stepAt = append(h.stepAt, monoNs())
			h.steps++
		}
		h.checksum = splitmix64(h.checksum ^ res)
		progress.Add(1)

		// Check this step's ghosts; their digest is the next contribution.
		contrib = 0
		for side, from := range [2]int{left, right} {
			g := segment.Slice[uint64](env.seg, lay.ghost[side][par], faceWords)
			b := haloBase(seed, from, s, 1-side)
			for k, v := range g {
				if v != b+uint64(k)*golden {
					h.bad++
				}
				contrib = splitmix64(contrib ^ v)
			}
		}
		contrib &^= stopBit
		if res&stopBit != 0 {
			break
		}
	}
	me.Barrier()
	h.t[1] = time.Now()
	h.waitNs[1] = waitNs(tk)
	if env.mem != nil {
		h.rxBytes += env.mem.rxBytes
	}
	if r == 0 {
		h.snaps[1] = takeSnap()
		h.wins = clock.finish(monoNs())
	}
}
