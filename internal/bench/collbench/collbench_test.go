package collbench

import "testing"

// TestFlavorsVerify runs every flavor at a small shape; the internal
// allgather fold panics on any correctness failure.
func TestFlavorsVerify(t *testing.T) {
	for _, p := range []Params{
		{Ranks: 2, Hier: false},
		{Ranks: 2, Hier: true, PPN: 1},
		{Ranks: 4, Hier: true, PPN: 2},
		{Ranks: 4, Hier: true, PPN: 4},
	} {
		r := Run(Params{Ranks: p.Ranks, PPN: p.PPN, Hier: p.Hier, Iters: 8, Repeats: 1})
		if r.BarrierUsec <= 0 || r.AllGatherUsec <= 0 {
			t.Errorf("%+v: degenerate latencies: %+v", p, r)
		}
	}
}

// TestHierBeatsFlatBarrier is the headline acceptance claim: at 8
// ranks, the hierarchical barrier — shm arrive/release within a host,
// dissemination rounds among leaders — completes faster than the flat
// wire barrier (linear gather through rank 0). Co-locating all 8 ranks
// makes the comparison shm rings vs TCP round-trips, which holds by a
// wide margin on any machine; best-of-repeats suppresses scheduler
// noise. (The ppn=1 tree-vs-linear margin is real but thinner, so it
// is reported by the harness experiment rather than asserted here.)
func TestHierBeatsFlatBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison; skipped in -short")
	}
	const n = 8
	flat := Run(Params{Ranks: n, Iters: 48, Repeats: 5})
	hier := Run(Params{Ranks: n, Hier: true, PPN: n, Iters: 48, Repeats: 5})
	t.Logf("flat barrier %.1fus, hier(ppn=%d) barrier %.1fus", flat.BarrierUsec, n, hier.BarrierUsec)
	if hier.BarrierUsec >= flat.BarrierUsec {
		t.Errorf("hierarchical barrier (%.1fus) not faster than flat (%.1fus) at %d co-located ranks",
			hier.BarrierUsec, flat.BarrierUsec, n)
	}
}

// TestHierSpreadNearFlat guards the spread layout: 4 ranks as 2 hosts
// of 2, so every collective crosses both the shm plane and the wire.
// A rank blocked there waits on both, which is where a polling wait
// that starves the network delivery shows; the hierarchical barrier
// and allgather must each stay within 3x of the flat TCP figures
// measured in the same run (best of 5 for each).
func TestHierSpreadNearFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison; skipped in -short")
	}
	const n, ppn, repeats = 4, 2, 5
	best := func(p Params) (bar, gather float64) {
		for rep := 0; rep < repeats; rep++ {
			r := runOnce(p)
			if rep == 0 || r.BarrierUsec < bar {
				bar = r.BarrierUsec
			}
			if rep == 0 || r.AllGatherUsec < gather {
				gather = r.AllGatherUsec
			}
		}
		return bar, gather
	}
	flatBar, flatGather := best(Params{Ranks: n, Iters: 48})
	hierBar, hierGather := best(Params{Ranks: n, Hier: true, PPN: ppn, Iters: 48})
	t.Logf("flat barrier %.1fus allgather %.1fus; hier(ppn=%d) barrier %.1fus allgather %.1fus",
		flatBar, flatGather, ppn, hierBar, hierGather)
	if hierBar >= 3*flatBar {
		t.Errorf("hierarchical spread barrier (%.1fus) not within 3x of flat (%.1fus)", hierBar, flatBar)
	}
	if hierGather >= 3*flatGather {
		t.Errorf("hierarchical spread allgather (%.1fus) not within 3x of flat (%.1fus)", hierGather, flatGather)
	}
}
