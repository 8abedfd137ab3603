// Command perfbench is the repository's benchmark: one process that
// assembles a job from the runtime's public layers, runs one of three
// workloads on it, verifies the outputs and prints the metrics. With
// -trace 0 it prints the end-to-end metrics; with -trace 1 it runs the
// workload untraced and then traced with the same inputs, checks that
// both produce the same checksum, prints a per-layer self-time table
// and the per-layer metrics, and writes the spans as Chrome-trace JSON.
// See README.md for the workloads, the metrics and how to read a trace.
//
//	go run . -workload halo -seed 1 -seconds 40 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// params are one run's inputs; every generated input derives from seed.
type params struct {
	seed    uint64
	seconds float64
	small   bool   // tiny sizes, for the package's own tests
	workdir string // scratch space for shm files and dumps
}

// namedMetric is one workload-specific figure for the report. A figure
// with a src is derived (resolve): "ops" is the pooled ops_per_s, any
// other src the q-quantile of that sample set; without a src the value
// is averaged over repetitions.
type namedMetric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind it (0 = not a sampled timing)
	src   string
	q     float64
}

// namedValue returns the named figure's value (0 if absent).
func (o *outcome) namedValue(name string) float64 {
	for _, m := range o.named {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// resolve computes the derived named figures from o's pooled state.
func (o *outcome) resolve() {
	for i := range o.named {
		m := &o.named[i]
		switch m.src {
		case "":
		case "ops":
			m.value, m.n = o.opsPerS, int(o.opsCount)
		default:
			m.value, m.n = quantile(o.samples[m.src], m.q), len(o.samples[m.src])
		}
	}
}

// outcome is one workload run's result.
type outcome struct {
	setupS, meshS, readyS []float64 // one per set-up trial

	// The end-to-end slots every workload fills (see README.md), the
	// ops count behind opsPerS, and the latency samples (µs) the named
	// quantiles are taken from.
	opsPerS, p50us float64
	opsCount       float64
	samples        map[string][]float64

	// wins are the timed phase's windows (windows.go); when there are
	// any, pool takes p50us — and opsPerS too if winRate — from the
	// least-stolen ones.
	wins    []winStat
	winRate bool

	attempted, failed int64
	checksum          uint64

	layer  map[string]float64 // per-layer metrics this run measured
	named  []namedMetric
	sizes  map[string]any
	replay any // the work the traced run must repeat for equal checksums

	// overheadFrac turns an untraced and a traced outcome of this
	// workload into the traced run's relative slowdown.
	overheadFrac func(untraced, traced *outcome) float64
	// ladder renders workload-specific traced analysis (kv's
	// reconciliation); may be nil.
	ladder func(untraced, traced *outcome) []string
	// path lists the span names along the workload's blocking path for
	// the self-time table.
	path []string
}

type workloadFn func(p params, tr *tracer, replay any) (*outcome, error)

var workloads = map[string]workloadFn{
	"gups": runGups,
	"halo": runHalo,
	"kv":   runKV,
}

// endToEnd and perLayer name the printed metrics in BENCHMARK.json's
// order, with units. p50_us is a per-layer metric: kv's heavy-rate p50
// followed the shared host's speed, which drifted by a fifth or more
// within minutes, so it could not repeat within the largest bound (see
// README.md).
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"peak_rss_mb", "MiB"}, {"ops_per_s", "1/s"},
}

// The gups-only figures — segment.xor64_ns, agg.maxops_avg,
// agg.issue_ns_per_op, core.advance_ns, core.rpc_rtt_*, rpcs_per_s,
// rpc_p99_us — are not in this set, since gups is not among
// BENCHMARK.json's workloads; a traced gups run prints them in its
// report instead.
var perLayer = [][2]string{
	{"spmd.mesh_s", "s"}, {"spmd.ready_s", "s"},
	{"transport.tx_frames_per_op", "count"}, {"transport.tx_bytes_per_op", "B"},
	{"transport.write_syscalls_per_frame", "count"}, {"transport.read_syscalls_per_frame", "count"},
	{"frames.allocs_per_op", "count"}, {"frames.alloc_bytes_per_op", "B"},
	{"segment.rx_bytes_per_op", "B"}, {"segment.rx_write_ns_per_kib", "ns"},
	{"gasnet.put_intra_p50_us", "us"}, {"gasnet.put_inter_p50_us", "us"},
	{"gasnet.barrier_p50_us", "us"}, {"gasnet.barrier_p99_us", "us"}, {"gasnet.allgather_p50_us", "us"},
	{"gasnet.wait_frac", "ratio"}, {"gasnet.batch_rtt_p50_us", "us"}, {"gasnet.batch_rtt_p99_us", "us"},
	{"gasnet.shm_msgs_per_step", "count"},
	{"agg.ops_per_batch", "count"}, {"agg.flush_age_frac", "ratio"},
	{"core.copy_self_us", "us"}, {"core.barrier_self_us", "us"}, {"core.allreduce_p50_us", "us"},
	{"svc.http_p50_us", "us"}, {"svc.http_p99_us", "us"},
	{"svc.store_get_p50_us", "us"}, {"svc.store_get_p99_us", "us"},
	{"svc.store_put_p50_us", "us"}, {"svc.store_put_p99_us", "us"},
	{"svc.client_self_p50_us", "us"}, {"svc.rejected_frac", "ratio"}, {"svc.store_retries", "count"},
	{"bench.gen_late_p99_us", "us"}, {"bench.ladder_gap_frac", "ratio"},
	{"proc.cpu_us_per_op", "us"}, {"proc.ctx_switches_per_op", "count"},
	{"bench.trace_overhead_frac", "ratio"},
	// Workload figures too unsteady, or too specific, for the shared
	// end-to-end slots; measured by the untraced run of -trace 1.
	{"fail_frac", "ratio"}, {"p50_us", "us"},
	{"step_p99_us", "us"}, {"halo_gb_per_s", "GB/s"},
	{"heavy_p99_us", "us"}, {"get_p50_us", "us"}, {"get_p99_us", "us"},
	{"put_p50_us", "us"}, {"put_p99_us", "us"}, {"light_p99_us", "us"},
}

func main() {
	workload := flag.String("workload", "", "gups, halo or kv")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory (shm files, traces, dumps)")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload gups|halo|kv, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	runName = *workload
	p := params{seed: *seed, seconds: *seconds, workdir: *workdir}
	startWatchdog(filepath.Join(*workdir, fmt.Sprintf("hang-%s-%d.txt", *workload, *seed)),
		time.Duration(*seconds*float64(time.Second))*6+60*time.Second)

	reps := make([]*outcome, repetitions)
	for i := range reps {
		o, err := fn(repParams(p, i), nil, nil)
		if err != nil {
			fatal(err)
		}
		reps[i] = o
		releaseMemory()
	}
	base := pool(reps)
	fp := fingerprint(p, *workload, *trace, base.sizes)
	if *trace == 0 {
		report(*workload, base, nil)
		emit(fp, base.attempted, base.failed, endToEndMetrics(base))
		return
	}

	// The traced run repeats every repetition's inputs and work, each
	// with a tracer of its own; the first one's spans are kept for the
	// self-time table and the trace file.
	treps := make([]*outcome, repetitions)
	var tr *tracer
	mismatches := 0
	for i := range treps {
		t := newTracer()
		o, err := fn(repParams(p, i), t, reps[i].replay)
		if err != nil {
			fatal(err)
		}
		if o.checksum != reps[i].checksum {
			fmt.Printf("repetition %d: traced checksum %#x != untraced %#x\n", i, o.checksum, reps[i].checksum)
			o.failed++
			mismatches++
		}
		if i == 0 {
			tr = t
		}
		treps[i] = o
		releaseMemory()
	}
	traced := pool(treps)
	report(*workload, base, nil)
	report(*workload, traced, tr)
	if mismatches == 0 {
		fmt.Printf("all %d traced repetitions reproduced their untraced checksums\n", repetitions)
	}
	layer := map[string]float64{}
	for k, v := range base.layer { // counters: from the untraced run
		layer[k] = v
	}
	for k, v := range traced.layer { // timings: from the traced run
		if _, ok := base.layer[k]; !ok {
			layer[k] = v
		}
	}
	layer["bench.trace_overhead_frac"] = base.overheadFrac(base, traced)
	layer["p50_us"] = base.p50us
	for _, m := range base.named {
		if _, ok := layer[m.name]; !ok {
			layer[m.name] = m.value
		}
	}
	layer["fail_frac"] = float64(base.failed+traced.failed) / float64(max(base.attempted+traced.attempted, 1))
	if traced.ladder != nil {
		for _, l := range traced.ladder(base, traced) {
			fmt.Println(l)
		}
		layer["bench.ladder_gap_frac"] = traced.layer["bench.ladder_gap_frac"]
	}
	selfTable(tr, traced.path)
	path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
	if err := tr.writeChrome(path, map[string]string{"workload": *workload, "seed": fmt.Sprint(*seed)}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	} else {
		fmt.Printf("trace written to %s (load it in https://ui.perfetto.dev)\n", path)
	}
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m[0]] = metric{Value: layer[m[0]], Unit: m[1]}
	}
	var extra []string
	for k, v := range layer {
		if _, ok := out[k]; !ok && v != 0 && !strings.HasPrefix(k, "kv.rung.") {
			extra = append(extra, fmt.Sprintf("%s=%.4g", k, v))
		}
	}
	sort.Strings(extra)
	fmt.Printf("figures outside the result line: %s\n", strings.Join(extra, " "))
	emit(fp, base.attempted+traced.attempted, base.failed+traced.failed, out)
}

// repetitions is how many independent jobs one run measures, each for
// an equal share of the run's seconds. The runtime settles into a
// different scheduling pattern in each assembled job — the gups update
// rate of one job differed from the next by up to a third — so a run
// pools several jobs instead of trusting one.
const repetitions = 8

// repParams gives repetition i its share of the time and its own seed.
func repParams(p params, i int) params {
	p.seconds /= repetitions
	p.seed = p.seed*repetitions + uint64(i)
	return p
}

// pool merges the repetitions of one run: counts add up, ops_per_s and
// p50_us are medians of the repetitions' figures, other latency
// quantiles come from the pooled samples, and per-layer figures and the
// remaining named figures are averaged.
func pool(reps []*outcome) *outcome {
	o := *reps[0]
	o.setupS, o.meshS, o.readyS = nil, nil, nil
	o.opsCount, o.attempted, o.failed = 0, 0, 0
	o.layer = map[string]float64{}
	o.samples = map[string][]float64{}
	o.named = append([]namedMetric(nil), reps[0].named...)
	n := float64(len(reps))
	for i, r := range reps {
		o.setupS = append(o.setupS, r.setupS...)
		o.meshS = append(o.meshS, r.meshS...)
		o.readyS = append(o.readyS, r.readyS...)
		for k, xs := range r.samples {
			o.samples[k] = append(o.samples[k], xs...)
		}
		o.opsCount += r.opsCount
		o.attempted += r.attempted
		o.failed += r.failed
		for k, v := range r.layer {
			o.layer[k] += v / n
		}
		if i > 0 {
			for j := range o.named {
				o.named[j].value += r.named[j].value
				o.named[j].n += r.named[j].n
			}
		}
	}
	for j := range o.named {
		o.named[j].value /= n
	}
	// The end-to-end slots are medians over the least-stolen windows of
	// all repetitions (windows.go) or, for figures without windows,
	// over repetitions: the shared host stalls in bursts, and a median
	// drops the repetitions a burst lands in.
	rates, p50s := make([]float64, len(reps)), make([]float64, len(reps))
	o.wins = nil
	for i, r := range reps {
		rates[i], p50s[i] = r.opsPerS, r.p50us
		o.wins = append(o.wins, r.wins...)
	}
	o.opsPerS, o.p50us = median(rates), median(p50s)
	if len(o.wins) > 0 {
		p50, rate := windowFigures(o.wins)
		o.p50us = p50
		o.sizes["window_s"] = windowLen.Seconds()
		if o.winRate {
			o.opsPerS = rate
		}
	}
	o.resolve()
	o.sizes["repetitions"] = len(reps)
	return &o
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func endToEndMetrics(o *outcome) map[string]metric {
	vals := map[string]float64{
		"setup_s": median(o.setupS), "peak_rss_mb": peakRSSMiB(),
		"ops_per_s": o.opsPerS,
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m[0]] = metric{Value: vals[m[0]], Unit: m[1]}
	}
	return out
}

// cpuTicks reads the host's CPU time counters from /proc/stat: the
// share the hypervisor stole is the one input that explains a slow run
// from outside the process.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		var v int64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

var stealStart, totalStart = cpuTicks()

// emit prints the fingerprint line and, last, the result line.
func emit(fp map[string]any, attempted, failed int64, metrics map[string]metric) {
	if s, t := cpuTicks(); t > totalStart {
		fp["host_steal_frac"] = float64(s-stealStart) / float64(t-totalStart)
	}
	b, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", b)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, max(attempted, 1), failed, metrics}
	b, _ = json.Marshal(res)
	fmt.Println(string(b))
}

// report prints the human-readable block: set-up trials, the
// workload's own named figures with their sample counts, and the
// per-layer metrics this run measured.
func report(workload string, o *outcome, tr *tracer) {
	mode := "untraced"
	if tr != nil {
		mode = "traced"
	}
	fmt.Printf("== %s (%s) ==\n", workload, mode)
	fmt.Printf("setup_s trials %s (median %.4f)\n", fmtList(o.setupS), median(o.setupS))
	if len(o.wins) > 0 {
		fmt.Println(windowLine(o.wins))
	}
	for _, m := range o.named {
		if strings.Contains(m.name, "p99") && m.n < 1000 {
			fmt.Printf("%-28s %14.4f %-6s n=%d: fewer than 10 samples beyond it, not a p99\n", m.name, m.value, m.unit, m.n)
		} else if m.n > 0 {
			fmt.Printf("%-28s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("%-28s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Printf("%-28s %14d / %d attempted\n", "failed", o.failed, o.attempted)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// selfTable prints, for each span name along the blocking path, its
// count, p50 and p99 duration and its mean self time (duration minus
// what nested child spans cover).
func selfTable(tr *tracer, path []string) {
	fmt.Printf("%-24s %10s %12s %12s %12s\n", "span (blocking path)", "count", "p50_us", "p99_us", "self_mean_us")
	for _, name := range path {
		h, self := tr.merged(name), tr.merged(name+"#self")
		if h.n == 0 {
			continue
		}
		selfMean := "-" // spans on the shared HTTP track carry no nesting
		if self.n > 0 {
			selfMean = fmt.Sprintf("%.2f", self.mean()/1e3)
		}
		fmt.Printf("%-24s %10d %12.2f %12.2f %12s\n", name, h.n,
			h.quantile(0.5)/1e3, h.quantile(0.99)/1e3, selfMean)
	}
	var rest []string
	for _, name := range tr.names() {
		if !strings.HasSuffix(name, "#self") && !contains(path, name) {
			rest = append(rest, fmt.Sprintf("%s(%d)", name, tr.merged(name).n))
		}
	}
	sort.Strings(rest)
	fmt.Printf("other spans: %s\n", strings.Join(rest, " "))
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// releaseMemory returns the previous job's memory to the OS before the
// next job is assembled, so peak RSS reflects one job.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// fingerprint records the host and the inputs with every result.
func fingerprint(p params, workload string, trace int, sizes map[string]any) map[string]any {
	fp := map[string]any{
		"workload": workload, "seed": p.seed, "seconds": p.seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model": cpuModel(), "llc_bytes": llcBytes(), "go_version": runtime.Version(),
		"commit": os.Getenv("PERFBENCH_COMMIT"),
	}
	for k, v := range sizes {
		fp[k] = v
	}
	return fp
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes is the size of the highest cache level cpu0 reports, or 32
// MiB when sysfs does not say.
func llcBytes() int64 {
	best, bestLevel := int64(32<<20), -1
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		var level int
		fmt.Sscan(strings.TrimSpace(string(lv)), &level)
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		var v int64
		if _, err := fmt.Sscan(s, &v); err != nil || v <= 0 {
			continue
		}
		if level > bestLevel {
			best, bestLevel = v*mult, level
		}
	}
	return best
}
