package main

import (
	"math"
	"reflect"
	"testing"

	"upcxx/internal/core"
	"upcxx/internal/gasnet"
)

// capsShape lists which Caps fields are set.
func capsShape(c gasnet.Caps) []bool {
	v := reflect.ValueOf(c)
	out := make([]bool, v.NumField())
	for i := range out {
		out[i] = !v.Field(i).IsNil()
	}
	return out
}

// The decorated conduit must advertise exactly the wrapped conduit's
// non-nil capabilities, each served by the decorator itself: a dropped
// Async or Batch would silently run a different program, and a field
// pointing past the decorator would bypass the trace.
func TestTracedConduitForwardsCapabilities(t *testing.T) {
	for _, ppn := range []int{0, 2} {
		spec := meshSpec{ranks: 2, ppn: ppn, segBytes: 1 << 16, shmDir: t.TempDir(), tr: newTracer()}
		_, err := runMesh(spec, func(me *core.Rank, env *rankEnv) {
			raw, dec := env.raw.Capabilities(), env.cd.Capabilities()
			if got, want := capsShape(dec), capsShape(raw); !reflect.DeepEqual(got, want) {
				t.Errorf("ppn %d rank %d: decorated caps %v, wrapped %v", ppn, me.ID(), got, want)
			}
			v := reflect.ValueOf(dec)
			for i := 0; i < v.NumField(); i++ {
				if f := v.Field(i); !f.IsNil() && f.Interface() != any(env.cd) {
					t.Errorf("ppn %d: Caps.%s bypasses the decorator", ppn, v.Type().Field(i).Name)
				}
			}
			me.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// A tiny-size run of every workload passes its own verification, and
// the traced run repeats the untraced checksum.
func TestWorkloadsSmoke(t *testing.T) {
	for name, fn := range workloads {
		t.Run(name, func(t *testing.T) {
			p := params{seed: 3, seconds: 0.4, small: true, workdir: t.TempDir()}
			u, err := fn(p, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if u.attempted == 0 || u.failed != 0 {
				t.Fatalf("untraced: %d of %d failed", u.failed, u.attempted)
			}
			// ops_per_s may be 0 for kv under the race detector, where no
			// request makes the latency limit.
			if u.p50us <= 0 || len(u.setupS) == 0 {
				t.Errorf("untraced metrics missing: p50 %v setups %v", u.p50us, u.setupS)
			}
			tr := newTracer()
			tc, err := fn(p, tr, u.replay)
			if err != nil {
				t.Fatal(err)
			}
			if tc.failed != 0 {
				t.Fatalf("traced: %d of %d failed", tc.failed, tc.attempted)
			}
			if tc.checksum != u.checksum {
				t.Errorf("traced checksum %#x, untraced %#x", tc.checksum, u.checksum)
			}
			if len(tr.names()) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// The same seed generates the same inputs; another seed, others.
func TestSeedDeterminesInputs(t *testing.T) {
	a := kvSchedule(5, 0, 1e8, 1e8, true)
	b := kvSchedule(5, 0, 1e8, 1e8, true)
	c := kvSchedule(6, 0, 1e8, 1e8, true)
	if !reflect.DeepEqual(a, b) {
		t.Error("kv schedule differs for one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("kv schedule identical for two seeds")
	}
	if gupsStart(5, 1) != gupsStart(5, 1) || gupsStart(5, 1) == gupsStart(6, 1) || gupsStart(5, 0) == gupsStart(5, 1) {
		t.Error("gups stream starts do not follow the seed and rank")
	}
	if haloBase(5, 1, 2, 0) != haloBase(5, 1, 2, 0) || haloBase(5, 1, 2, 0) == haloBase(6, 1, 2, 0) {
		t.Error("halo faces do not follow the seed")
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.03 {
			t.Errorf("q%.2f = %v, want %v within 3%%", q, got, want)
		}
	}
	if h.n != 100000 || h.mean() != 50000.5 {
		t.Errorf("n %d mean %v", h.n, h.mean())
	}
}

// Samples land in the window holding their timestamp, windows without
// samples drop out, and the figures come from every window with no
// stolen time but never fewer than a quarter of them.
func TestLeastStolenWindows(t *testing.T) {
	var ws []window
	var at []int64
	var vals []float64
	stolen := []int64{0, 3, 0, 1, 0, 5, 2, 0}
	for k, s := range stolen {
		start := int64(k) * 1e9
		ws = append(ws, window{start, start + 1e9, s})
		for i := 0; i < 10; i++ { // latency 100·(k+1), rate 5/s at perOp 2
			at = append(at, start+int64(i)*1e8)
			vals = append(vals, float64(100*(k+1)))
		}
	}
	ws = append(ws, window{8e9, 9e9, 0}) // no samples
	st := windowStats(ws, at, vals, 2)
	if len(st) != len(stolen) {
		t.Fatalf("%d window stats, want %d", len(st), len(stolen))
	}
	for k, w := range st {
		if w.p50 != float64(100*(k+1)) || w.rate != 5 || w.n != 10 || w.stolen != stolen[k] {
			t.Errorf("window %d: %+v", k, w)
		}
	}
	// Four windows had nothing stolen: windows 0, 2, 4 and 7.
	if n := len(leastStolen(st)); n != 4 {
		t.Errorf("%d least-stolen windows, want 4", n)
	}
	if p50, rate := windowFigures(st); p50 != 400 || rate != 5 {
		t.Errorf("figures p50 %v rate %v, want 400 and 5", p50, rate)
	}
	// With every window stolen from, the least-stolen quarter remains.
	for i := range st {
		st[i].stolen++
	}
	if sel := leastStolen(st); len(sel) != 2 || sel[0].p50 != 100 || sel[1].p50 != 300 {
		t.Errorf("least stolen %+v, want windows 0 and 2", sel)
	}
}
