package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
	"sync"
	"time"

	"upcxx/internal/obs"
)

// The benchmark's own tracer. Spans are recorded only from the
// benchmark's files — around each call it makes into a layer's public
// functions, and inside the decorators it places over the public seams
// (conduit, segment memory, store, HTTP handler). Every span feeds an
// exact per-name histogram; the spans themselves are kept in memory,
// sampled once a name is frequent, and written at exit as Chrome-trace
// JSON, which Perfetto and upcxx-trace load.

// hist is a log-linear histogram of non-negative integer samples
// (nanoseconds, usually): values below 32 have their own bucket, larger
// ones 32 sub-buckets per power of two, so any quantile carries at most
// ~3% relative error. Counts and sums are exact.
type hist struct {
	n, sum int64
	b      [60 * 32]uint32
}

func histIndex(v int64) int {
	if v < 32 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 6
	return (e+1)*32 + int((uint64(v)>>e)&31)
}

func histValue(i int) float64 {
	if i < 32 {
		return float64(i)
	}
	e := i/32 - 1
	lo := float64(uint64(32+i%32) << e)
	return lo + float64(uint64(1)<<e)/2
}

func (h *hist) add(v int64) {
	h.n++
	h.sum += v
	h.b[histIndex(v)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile returns the q-quantile (0..1), 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.b {
		seen += int64(c)
		if seen >= target {
			return histValue(i)
		}
	}
	return histValue(len(h.b) - 1)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// span is one recorded interval on a track. id is unique per tracer;
// parent is the id of the span that caused it (0 = none); op ties the
// spans of one operation (a kv request id, a halo step).
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	id, parent uint64
	op         uint64
}

// Storage sampling: the first keepAll spans of a name are stored, then
// one in sampleEvery, and no track stores more than maxSpans. The
// histograms see every span regardless.
const (
	keepAll     = 2000
	sampleEvery = 64
	maxSpans    = 200_000
)

// tracer owns the epoch, the id sequence and every track of one traced
// run.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	nextID uint64
	tracks []*track
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) ids(n uint64) uint64 {
	tr.mu.Lock()
	id := tr.nextID + 1
	tr.nextID += n
	tr.mu.Unlock()
	return id
}

// track is one timeline: a rank's SPMD goroutine (single-owner, no
// locking on the hot path) or a shared timeline such as the HTTP plane
// (locked, see sharedTrack). id is the Chrome tid.
type track struct {
	tr   *tracer
	id   int
	name string

	// Single-owner state: the open-span stack and the id block.
	stack     []frame
	idNext    uint64
	idLimit   uint64
	hists     map[string]*hist
	perName   map[string]int
	spans     []span
	dropped   int64
	sharedMu  *sync.Mutex // non-nil for tracks written by many goroutines
	waitNs    int64       // time inside blocking conduit calls (wait_frac)
	waitDepth int
}

type frame struct {
	name     string
	id, op   uint64
	start    int64
	childDur int64
}

func (tr *tracer) newTrack(id int, name string) *track {
	t := &track{tr: tr, id: id, name: name, hists: map[string]*hist{}, perName: map[string]int{}}
	tr.mu.Lock()
	tr.tracks = append(tr.tracks, t)
	tr.mu.Unlock()
	return t
}

// newSharedTrack returns a track safe for concurrent use; callers give
// parents explicitly (record), there is no stack.
func (tr *tracer) newSharedTrack(id int, name string) *track {
	t := tr.newTrack(id, name)
	t.sharedMu = &sync.Mutex{}
	return t
}

func (t *track) nextSpanID() uint64 {
	if t.idNext == t.idLimit {
		t.idNext = t.tr.ids(4096)
		t.idLimit = t.idNext + 4096
	}
	id := t.idNext
	t.idNext++
	return id
}

func (t *track) hist(name string) *hist {
	h := t.hists[name]
	if h == nil {
		h = &hist{}
		t.hists[name] = h
	}
	return h
}

// store keeps s in the span buffer subject to sampling.
func (t *track) store(s span) {
	c := t.perName[s.name]
	t.perName[s.name] = c + 1
	if (c < keepAll || c%sampleEvery == 0) && len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
		return
	}
	t.dropped++
}

// begin opens a nested span on a single-owner track. The span methods
// are no-ops on a nil track, which is what an untraced run carries.
func (t *track) begin(name string, op uint64) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{name: name, id: t.nextSpanID(), op: op, start: t.tr.now()})
}

// end closes the innermost span, records its duration under its name
// and its self time (duration minus the time its children cover) under
// name+"#self", and returns the duration.
func (t *track) end() int64 {
	if t == nil {
		return 0
	}
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	now := t.tr.now()
	dur := now - f.start
	var parent uint64
	if n > 0 {
		t.stack[n-1].childDur += dur
		parent = t.stack[n-1].id
	}
	t.hist(f.name).add(dur)
	t.hist(f.name + "#self").add(dur - f.childDur)
	t.store(span{name: f.name, start: f.start, end: now, id: f.id, parent: parent, op: f.op})
	return dur
}

// current returns the id of the innermost open span (0 = none).
func (t *track) current() uint64 {
	if t == nil {
		return 0
	}
	if n := len(t.stack); n > 0 {
		return t.stack[n-1].id
	}
	return 0
}

// async records a span that was not nested on the stack (an operation
// whose completion fires from a later progress call): parent is the
// span that was open when it was issued.
func (t *track) async(name string, start, end int64, parent, op uint64) {
	t.hist(name).add(end - start)
	t.store(span{name: name, start: start, end: end, id: t.nextSpanID(), parent: parent, op: op})
}

// blocking brackets a conduit call that may wait for peers, for the
// wait_frac metric; nested blocking calls count once.
func (t *track) blockEnter() int64 {
	if t == nil {
		return -1
	}
	t.waitDepth++
	if t.waitDepth == 1 {
		return t.tr.now()
	}
	return -1
}

func (t *track) blockExit(start int64) {
	if t == nil {
		return
	}
	t.waitDepth--
	if start >= 0 {
		t.waitNs += t.tr.now() - start
	}
}

// record is the shared-track entry point: one finished span with an
// explicit id and parent, callable from any goroutine.
func (t *track) record(name string, start, end int64, id, parent, op uint64) {
	t.sharedMu.Lock()
	t.hist(name).add(end - start)
	t.store(span{name: name, start: start, end: end, id: id, parent: parent, op: op})
	t.sharedMu.Unlock()
}

// merged folds one histogram name across every track.
func (tr *tracer) merged(name string) *hist {
	out := &hist{}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.tracks {
		if t.sharedMu != nil {
			t.sharedMu.Lock()
		}
		if h := t.hists[name]; h != nil {
			out.merge(h)
		}
		if t.sharedMu != nil {
			t.sharedMu.Unlock()
		}
	}
	return out
}

// trackHist returns one track's histogram of name (empty if none).
func (tr *tracer) trackHist(id int, name string) *hist {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.tracks {
		if t.id == id && t.hists[name] != nil {
			return t.hists[name]
		}
	}
	return &hist{}
}

// names lists every histogram name recorded on any track, sorted.
func (tr *tracer) names() []string {
	seen := map[string]bool{}
	tr.mu.Lock()
	for _, t := range tr.tracks {
		for k := range t.hists {
			seen[k] = true
		}
	}
	tr.mu.Unlock()
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// waitNs sums blocking time over the rank tracks.
func (tr *tracer) waitNs() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var s int64
	for _, t := range tr.tracks {
		s += t.waitNs
	}
	return s
}

// writeChrome writes every stored span as Chrome-trace JSON (complete
// "X" events, microsecond timestamps, one tid per track, sorted by
// start within a track) plus thread-name metadata.
func (tr *tracer) writeChrome(path string, meta map[string]string) error {
	tr.mu.Lock()
	tracks := append([]*track(nil), tr.tracks...)
	tr.mu.Unlock()
	var evs []obs.TraceEvent
	var dropped int64
	for _, t := range tracks {
		evs = append(evs, obs.TraceEvent{Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: 0, Tid: t.id,
			Args: map[string]any{"name": t.name}})
		ss := append([]span(nil), t.spans...)
		sort.SliceStable(ss, func(a, b int) bool { return ss[a].start < ss[b].start })
		for _, s := range ss {
			args := map[string]any{"id": s.id}
			if s.parent != 0 {
				args["parent"] = s.parent
			}
			if s.op != 0 {
				args["op"] = s.op
			}
			evs = append(evs, obs.TraceEvent{Name: s.name, Cat: "perfbench", Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 0, Tid: t.id, Args: args})
		}
		dropped += t.dropped
	}
	if meta == nil {
		meta = map[string]string{}
	}
	meta["sampled_out_spans"] = fmt.Sprint(dropped)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(obs.TraceFile{TraceEvents: evs, OtherData: meta}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
