package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"upcxx/internal/obs"
)

// snap is a point-in-time reading of the process and runtime counters
// the per-layer metrics are deltas of. Take one at each edge of a timed
// phase, from one goroutine.
type snap struct {
	at           time.Time
	cpu          time.Duration // user + system
	ctxSwitches  int64         // voluntary + involuntary
	syscr, syscw int64         // -1 when /proc/self/io is unreadable
	mallocs      uint64
	allocBytes   uint64
	ctr          map[string]float64 // runtime registry, summed over ranks
}

func takeSnap() snap {
	var s snap
	s.at = time.Now()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.ctxSwitches = ru.Nvcsw + ru.Nivcsw
	}
	s.syscr, s.syscw = procIO()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes = ms.Mallocs, ms.TotalAlloc
	s.ctr = registryTotals()
	return s
}

// registryTotals folds the runtime's live metric registry (conduit,
// shm and aggregation counters of every rank) into unlabeled totals.
func registryTotals() map[string]float64 {
	out := map[string]float64{}
	for k, v := range obs.Reg().Snapshot() {
		if i := strings.IndexByte(k, '{'); i >= 0 {
			k = k[:i]
		}
		out[k] += float64(v)
	}
	return out
}

// procIO reads the syscall counts of /proc/self/io.
func procIO() (syscr, syscw int64) {
	syscr, syscw = -1, -1
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return
}

// phase is the delta between two snaps.
type phase struct {
	wall         time.Duration
	cpu          time.Duration
	ctxSwitches  int64
	syscr, syscw int64 // -1 when unmeasurable
	mallocs      float64
	allocBytes   float64
	ctr          map[string]float64
}

func (a snap) to(b snap) phase {
	p := phase{wall: b.at.Sub(a.at), cpu: b.cpu - a.cpu, ctxSwitches: b.ctxSwitches - a.ctxSwitches,
		syscr: -1, syscw: -1,
		mallocs: float64(b.mallocs - a.mallocs), allocBytes: float64(b.allocBytes - a.allocBytes),
		ctr: map[string]float64{}}
	if a.syscr >= 0 && b.syscr >= 0 {
		p.syscr, p.syscw = b.syscr-a.syscr, b.syscw-a.syscw
	}
	for k, v := range b.ctr {
		p.ctr[k] = v - a.ctr[k]
	}
	return p
}

// counterMetrics are the per-layer counters of a timed phase that did
// ops operations; they are cheap, so every run computes them.
func (p phase) counterMetrics(ops float64, m map[string]float64) {
	if ops <= 0 {
		return
	}
	txf, rxf := p.ctr["wire_tx_frames"], p.ctr["wire_rx_frames"]
	m["transport.tx_frames_per_op"] = txf / ops
	m["transport.tx_bytes_per_op"] = p.ctr["wire_tx_bytes"] / ops
	if p.syscw >= 0 && txf > 0 {
		m["transport.write_syscalls_per_frame"] = float64(p.syscw) / txf
	}
	if p.syscr >= 0 && rxf > 0 {
		m["transport.read_syscalls_per_frame"] = float64(p.syscr) / rxf
	}
	m["frames.allocs_per_op"] = p.mallocs / ops
	m["frames.alloc_bytes_per_op"] = p.allocBytes / ops
	m["proc.cpu_us_per_op"] = p.cpu.Seconds() * 1e6 / ops
	m["proc.ctx_switches_per_op"] = float64(p.ctxSwitches) / ops
	if b := p.ctr["agg_batches"]; b > 0 {
		m["agg.ops_per_batch"] = p.ctr["agg_ops"] / b
	}
	flushes := p.ctr["agg_flush_maxops"] + p.ctr["agg_flush_maxbytes"] + p.ctr["agg_flush_maxage"] +
		p.ctr["agg_flush_explicit"] + p.ctr["agg_flush_barrier"]
	if flushes > 0 {
		m["agg.flush_age_frac"] = p.ctr["agg_flush_maxage"] / flushes
	}
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of exact samples by the nearest-rank
// rule; it sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999999) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// splitmix64 is the seed expander: every generated input derives from
// the run's seed through it.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
