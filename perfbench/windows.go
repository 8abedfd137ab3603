package main

import (
	"fmt"
	"sort"
	"time"
)

// Windows. The shared host lends this machine its CPUs in bursts: in
// one stretch the hypervisor steals a tenth of the time, in the next
// none, and a window it stole from reads a quarter slower or more
// (every rank waits for the one whose CPU is gone). A run-wide figure
// then measures the neighbours as much as the program. So halo's step
// rate and step p50 and kv's heavy-rate p50 are taken per window of
// windowLen during the timed phase, each window tagged with the CPU
// time the hypervisor stole in it (/proc/stat), and the reported
// figure is the median over the least-stolen windows: every window
// with no stolen time, and never fewer than a quarter of all windows
// (the least-stolen ones first). A change that slows the program slows
// every window, those included; the per-layer p99s still see the rest.

const windowLen = 250 * time.Millisecond

// epoch anchors the monotonic timestamps samples and windows share.
var epoch = time.Now()

func monoNs() int64 { return int64(time.Since(epoch)) }

// windowClock marks window edges with the host's cumulative stolen CPU
// ticks while a timed phase runs.
type windowClock struct {
	stop, done chan struct{}
	at, steal  []int64 // edge times (monoNs) and stolen ticks at them
}

func startWindows() *windowClock {
	w := &windowClock{stop: make(chan struct{}), done: make(chan struct{})}
	w.mark()
	go func() {
		defer close(w.done)
		t := time.NewTicker(windowLen)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.mark()
			}
		}
	}()
	return w
}

func (w *windowClock) mark() {
	s, _ := cpuTicks()
	w.at = append(w.at, monoNs())
	w.steal = append(w.steal, s)
}

// window is the span between two edges and the ticks stolen in it.
type window struct{ start, end, stolen int64 }

// finish stops the clock and returns the whole windows that ended by
// until (monoNs); the partial window at the end is dropped.
func (w *windowClock) finish(until int64) []window {
	close(w.stop)
	<-w.done
	var out []window
	for i := 1; i < len(w.at) && w.at[i] <= until; i++ {
		out = append(out, window{w.at[i-1], w.at[i], w.steal[i] - w.steal[i-1]})
	}
	return out
}

// winStat is one window's figures.
type winStat struct {
	stolen int64
	p50    float64 // median of the samples timed in the window
	rate   float64 // operations per second
	n      int
}

// windowStats files each sample (a latency vals[i] timed at at[i]) under
// the window holding at[i]; perOp samples make one operation (halo
// times a step on every rank). Windows without samples have no median
// and are left out.
func windowStats(ws []window, at []int64, vals []float64, perOp int) []winStat {
	by := make([][]float64, len(ws))
	for i, t := range at {
		k := sort.Search(len(ws), func(k int) bool { return ws[k].end > t })
		if k < len(ws) && t >= ws[k].start {
			by[k] = append(by[k], vals[i])
		}
	}
	var out []winStat
	for k, xs := range by {
		if len(xs) == 0 {
			continue
		}
		secs := float64(ws[k].end-ws[k].start) / 1e9
		out = append(out, winStat{stolen: ws[k].stolen, p50: quantile(xs, 0.5),
			rate: float64(len(xs)) / float64(perOp) / secs, n: len(xs)})
	}
	return out
}

// leastStolen picks the windows the end-to-end figures come from: every
// window with no stolen time, and at least a quarter of all windows,
// least-stolen first (earlier first among equals).
func leastStolen(ws []winStat) []winStat {
	ys := append([]winStat(nil), ws...)
	sort.SliceStable(ys, func(a, b int) bool { return ys[a].stolen < ys[b].stolen })
	k := (len(ys) + 3) / 4
	for k < len(ys) && ys[k].stolen == 0 {
		k++
	}
	return ys[:k]
}

// windowFigures returns the median p50 and rate over the least-stolen
// windows.
func windowFigures(ws []winStat) (p50, rate float64) {
	sel := leastStolen(ws)
	p50s, rates := make([]float64, len(sel)), make([]float64, len(sel))
	for i, w := range sel {
		p50s[i], rates[i] = w.p50, w.rate
	}
	return median(p50s), median(rates)
}

// windowLine describes the windows behind a run's figures for the report.
func windowLine(ws []winStat) string {
	calm, samples := 0, 0
	for _, w := range ws {
		if w.stolen == 0 {
			calm++
		}
	}
	sel := leastStolen(ws)
	for _, w := range sel {
		samples += w.n
	}
	return fmt.Sprintf("windows of %v: %d, %d with no stolen CPU time; end-to-end figures over the %d least-stolen (%d samples)",
		windowLen, len(ws), calm, len(sel), samples)
}
