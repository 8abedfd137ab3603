package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"upcxx/internal/core"
	"upcxx/internal/svc"
)

// kv: the service front door. Three compute ranks plus the gateway rank
// over loopback TCP, resilient, with the production K=2 replication;
// svc.Handler is served on loopback. One open-loop generator sends
// seeded Poisson arrivals over two keep-alive connections — zipf keys
// (s=1.07), 80% GETs — first at a light and then at a heavy fixed rate.
// Latency counts from each request's due time. Each connection writes
// only its own half of the key space, so the last acked value of every
// key is known and the final state is a checksum.

const (
	kvCompute = 3
	kvConns   = 2
	kvScale   = svc.DefaultGateScale
	kvZipfS   = 1.07
	kvGetFrac = 0.8
	// Offered rates against the 2-connection closed-loop capacity,
	// 3.6–4.1k req/s on 2 cores: the light rate is about a quarter of
	// it, the heavy one about half. At three quarters the heavy p50
	// fell off the queueing cliff whenever the shared host slowed
	// (0.47 ms in one run, 23 ms in the next).
	kvLightRate = 1000.0
	kvHeavyRate = 2000.0
	kvLimit     = 5 * time.Millisecond
	kvWarm      = 500 * time.Millisecond
	kvSetups    = 2 // set-up trials per repetition; the last runs the workload
	kvHeader    = "X-Perfbench-Req"
)

// sleeper waits with microsecond precision. The Go runtime's timers
// wake up to a millisecond late, longer than the gap between arrivals
// at the heavy rate; a timerfd read parks the goroutine in the network
// poller, which the kernel wakes when the timer fires. Without timerfd
// it falls back to time.Sleep.
type sleeper struct {
	fd uintptr
	f  *os.File
}

type itimerspec struct{ interval, value syscall.Timespec }

func newSleeper() *sleeper {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return &sleeper{}
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}
}

func (s *sleeper) sleep(d time.Duration) {
	if s.f != nil {
		its := itimerspec{value: syscall.NsecToTimespec(int64(d))}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0,
			uintptr(unsafe.Pointer(&its)), 0, 0, 0)
		var buf [8]byte
		if _, err := s.f.Read(buf[:]); errno == 0 && err == nil {
			return
		}
	}
	time.Sleep(d)
}

func (s *sleeper) close() {
	if s.f != nil {
		s.f.Close()
	}
}

const (
	phWarm = iota
	phLight
	phHeavy
)

// kvReq is one scheduled request; the schedule is all the input the
// system under test receives.
type kvReq struct {
	due   time.Duration // since the schedule's start
	get   bool
	key   uint32
	val   uint64 // PUT payload: unique, non-zero
	phase uint8
}

// kvResult is what one request observed.
type kvResult struct {
	sent, done time.Duration // since the schedule's start
	late       time.Duration // generator lateness: send − max(due, previous done)
	status     int           // HTTP status; 0 = transport error
	val        uint64
}

// kvSchedule generates connection c's requests for the three phases.
func kvSchedule(seed uint64, c int, light, heavy time.Duration, small bool) []kvReq {
	rng := rand.New(rand.NewSource(int64(splitmix64(seed*7 + uint64(c)))))
	scale := uint64(kvScale)
	if small {
		scale = 1 << 10
	}
	zipf := rand.NewZipf(rng, kvZipfS, 1, scale-1)
	var out []kvReq
	var t time.Duration
	phases := []struct {
		ph   uint8
		rate float64
		dur  time.Duration
	}{{phWarm, kvHeavyRate, kvWarm}, {phLight, kvLightRate, light}, {phHeavy, kvHeavyRate, heavy}}
	if small {
		phases[0].dur = 50 * time.Millisecond
	}
	for _, ph := range phases {
		end := t + ph.dur
		for {
			t += time.Duration(rng.ExpFloat64() / (ph.rate / kvConns) * float64(time.Second))
			if t >= end {
				t = end
				break
			}
			rq := kvReq{due: t, key: uint32(zipf.Uint64()), phase: ph.ph}
			rq.get = rng.Float64() < kvGetFrac
			if !rq.get {
				rq.key = rq.key&^1 | uint32(c) // each connection owns one parity
				rq.val = uint64(c+1)<<40 | uint64(len(out)+1)
			}
			out = append(out, rq)
		}
	}
	return out
}

func kvKey(k uint32) string { return "k" + strconv.FormatUint(uint64(k), 10) }

// kvTrace is the traced run's HTTP-plane state: a shared track for the
// client, handler and store spans, and per-request durations indexed by
// the request's global number, for self times.
type kvTrace struct {
	tr *tracer
	tk *track

	mu                            sync.Mutex
	client, handler, store, queue []int64
	isGet                         []bool
	phase                         []uint8
}

type kvCtxKey struct{}

// kvInfo travels from the client (header) through the handler (context)
// to the store: the request's number and the first of its three span ids
// (client, handler, store).
type kvInfo struct {
	idx  int
	base uint64
}

func parseInfo(h string) (kvInfo, bool) {
	a, b, ok := strings.Cut(h, " ")
	if !ok {
		return kvInfo{}, false
	}
	idx, err1 := strconv.Atoi(a)
	base, err2 := strconv.ParseUint(b, 10, 64)
	return kvInfo{idx, base}, err1 == nil && err2 == nil
}

// middleware times svc.Handler per request.
func (kt *kvTrace) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info, ok := parseInfo(r.Header.Get(kvHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		start := kt.tr.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), kvCtxKey{}, info)))
		end := kt.tr.now()
		kt.tk.record("svc.http", start, end, info.base+1, info.base, uint64(info.idx)+1)
		kt.mu.Lock()
		kt.handler[info.idx] = end - start
		kt.mu.Unlock()
	})
}

// tracedStore decorates the svc.Store port: the DHTStore queue, the
// DHT, core, agg and the wire below it.
type tracedStore struct {
	in svc.Store
	kt *kvTrace
}

func (s *tracedStore) span(ctx context.Context, name string, start int64) {
	end := s.kt.tr.now()
	info, ok := ctx.Value(kvCtxKey{}).(kvInfo)
	if !ok {
		s.kt.tk.record(name, start, end, s.kt.tr.ids(1), 0, 0)
		return
	}
	s.kt.tk.record(name, start, end, info.base+2, info.base+1, uint64(info.idx)+1)
	s.kt.mu.Lock()
	s.kt.store[info.idx] = end - start
	s.kt.mu.Unlock()
}

func (s *tracedStore) Put(ctx context.Context, key string, val uint64) error {
	start := s.kt.tr.now()
	err := s.in.Put(ctx, key, val)
	s.span(ctx, "svc.store_put", start)
	return err
}

func (s *tracedStore) Get(ctx context.Context, key string) (uint64, bool, error) {
	start := s.kt.tr.now()
	v, found, err := s.in.Get(ctx, key)
	s.span(ctx, "svc.store_get", start)
	return v, found, err
}

func (s *tracedStore) PutBatch(ctx context.Context, keys []string, vals []uint64) []error {
	start := s.kt.tr.now()
	errs := s.in.PutBatch(ctx, keys, vals)
	s.span(ctx, "svc.store_put_batch", start)
	return errs
}

func (s *tracedStore) GetBatch(ctx context.Context, keys []string) []svc.GetResult {
	start := s.kt.tr.now()
	res := s.in.GetBatch(ctx, keys)
	s.span(ctx, "svc.store_get_batch", start)
	return res
}

func (s *tracedStore) Ready() bool { return s.in.Ready() }

// kvJob is one assembled gateway job with its HTTP front door.
type kvJob struct {
	st     *svc.DHTStore
	app    *svc.Service
	srv    *http.Server
	base   string
	done   chan struct{}
	run    *meshRun
	err    error
	sums   []uint64
	ready  time.Duration // assembly start → /readyz answered 200
	client *http.Client
}

func startKV(tr *tracer, kt *kvTrace, small bool) (*kvJob, error) {
	start := time.Now()
	scale := kvScale
	if small {
		scale = 1 << 10
	}
	j := &kvJob{st: svc.NewDHTStore(svc.StoreConfig{}), done: make(chan struct{}),
		sums: make([]uint64, kvCompute+1)}
	var store svc.Store = j.st
	if kt != nil {
		store = &tracedStore{in: j.st, kt: kt}
	}
	j.app = svc.New(store, svc.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = svc.Handler(j.app)
	if kt != nil {
		h = kt.middleware(h)
	}
	j.srv = &http.Server{Handler: h}
	go j.srv.Serve(ln)
	j.base = "http://" + ln.Addr().String()
	j.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: kvConns, MaxIdleConnsPerHost: kvConns, DisableCompression: true,
	}}

	gate := kvCompute
	spec := meshSpec{ranks: kvCompute + 1, segBytes: svc.GateSegBytes(kvCompute+1, scale),
		cfg: core.Config{Resilient: true}, tr: tr}
	go func() {
		defer close(j.done)
		j.run, j.err = runMesh(spec, func(me *core.Rank, _ *rankEnv) {
			if me.ID() == gate {
				j.sums[gate] = svc.GatewayMain(me, j.st, scale)
			} else {
				j.sums[me.ID()] = svc.ServeMain(me, scale)
			}
		})
	}()
	for {
		resp, err := j.client.Get(j.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-j.done:
			j.stop()
			return nil, fmt.Errorf("kv job ended before ready: %v", j.err)
		case <-time.After(time.Millisecond):
		}
	}
	j.ready = time.Since(start)
	return j, nil
}

// stop drains the gateway, waits for every rank to leave and closes the
// HTTP side.
func (j *kvJob) stop() error {
	j.st.Stop()
	<-j.done
	j.client.CloseIdleConnections()
	j.srv.Close()
	if j.run != nil {
		j.run.release()
	}
	if j.err != nil {
		return j.err
	}
	for _, s := range j.sums {
		if s != j.sums[0] {
			return errors.New("kv: ranks left with different DHT checksums")
		}
	}
	return nil
}

// do sends one request and reads the whole response.
func (j *kvJob) do(rq kvReq, hdr string) (status int, val uint64) {
	var req *http.Request
	if rq.get {
		req, _ = http.NewRequest(http.MethodGet, j.base+"/kv/"+kvKey(rq.key), nil)
	} else {
		req, _ = http.NewRequest(http.MethodPut, j.base+"/kv/"+kvKey(rq.key),
			strings.NewReader(strconv.FormatUint(rq.val, 10)))
	}
	req.Header.Set(kvHeader, hdr)
	resp, err := j.client.Do(req)
	if err != nil {
		return 0, 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0
	}
	if rq.get && resp.StatusCode == http.StatusOK {
		// {"key":"k1","value":N}
		s := string(body)
		if i := strings.LastIndex(s, ":"); i >= 0 {
			val, _ = strconv.ParseUint(strings.TrimRight(s[i+1:], "}\n "), 10, 64)
		}
	}
	return resp.StatusCode, val
}

// drive runs one connection's schedule open-loop: each request is sent
// at its due time or, if the previous one is still outstanding, as soon
// as it completes.
func (j *kvJob) drive(sched []kvReq, out []kvResult, first int, t0 time.Time, kt *kvTrace) {
	sl := newSleeper()
	defer sl.close()
	var prevDone time.Duration
	for i, rq := range sched {
		if d := time.Until(t0.Add(rq.due)); d > 0 {
			sl.sleep(d)
		}
		var base uint64
		var cStart int64
		if kt != nil {
			base = kt.tr.ids(3)
			cStart = kt.tr.now()
		}
		sent := time.Since(t0)
		status, val := j.do(rq, strconv.Itoa(first+i)+" "+strconv.FormatUint(base, 10))
		done := time.Since(t0)
		out[i] = kvResult{sent: sent, done: done, late: sent - max(rq.due, prevDone), status: status, val: val}
		prevDone = done
		if kt != nil {
			cEnd := kt.tr.now()
			qStart := cStart - int64(sent-rq.due)
			kt.tk.record("bench.queue", qStart, cStart, kt.tr.ids(1), base, uint64(first+i)+1)
			kt.tk.record("bench.client", cStart, cEnd, base, 0, uint64(first+i)+1)
			kt.mu.Lock()
			kt.client[first+i] = cEnd - cStart
			kt.queue[first+i] = int64(sent - rq.due)
			kt.isGet[first+i] = rq.get
			kt.phase[first+i] = rq.phase
			kt.mu.Unlock()
		}
		if i%64 == 0 {
			progress.Add(1)
		}
	}
}

func runKV(p params, tr *tracer, _ any) (*outcome, error) {
	light := time.Duration(0.3 * p.seconds * float64(time.Second))
	heavy := time.Duration(0.7 * p.seconds * float64(time.Second))
	setups := kvSetups
	if p.small || tr != nil {
		setups = 1
	}
	o := &outcome{layer: map[string]float64{}, sizes: map[string]any{
		"kv_compute_ranks": kvCompute, "kv_conns": kvConns, "kv_scale": kvScale, "kv_zipf_s": kvZipfS,
		"kv_get_frac": kvGetFrac, "kv_light_rps": kvLightRate, "kv_heavy_rps": kvHeavyRate,
		"kv_limit_ms": kvLimit.Seconds() * 1e3, "kv_light_s_per_rep": light.Seconds(), "kv_heavy_s_per_rep": heavy.Seconds(),
	}}
	scheds := make([][]kvReq, kvConns)
	total := 0
	for c := range scheds {
		scheds[c] = kvSchedule(p.seed, c, light, heavy, p.small)
		total += len(scheds[c])
	}
	var kt *kvTrace
	if tr != nil {
		kt = &kvTrace{tr: tr, tk: tr.newSharedTrack(100, "http"), client: make([]int64, total),
			handler: make([]int64, total), store: make([]int64, total), queue: make([]int64, total),
			isGet: make([]bool, total), phase: make([]uint8, total)}
	}

	var j *kvJob
	for trial := 0; trial < setups; trial++ {
		last := trial == setups-1
		var err error
		j, err = startKV(tr, kt, p.small)
		if err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, j.ready.Seconds())
		if !last {
			if err := j.stop(); err != nil {
				return nil, err
			}
			o.meshS = append(o.meshS, j.run.meshDone.Seconds())
			o.readyS = append(o.readyS, j.ready.Seconds()-j.run.meshDone.Seconds())
			releaseMemory()
		}
	}

	// Drive the schedule, snapshotting counters at the heavy phase's edges.
	results := make([][]kvResult, kvConns)
	t0 := time.Now()
	var wg sync.WaitGroup
	first := 0
	for c := range scheds {
		results[c] = make([]kvResult, len(scheds[c]))
		wg.Add(1)
		go func(c, first int) {
			defer wg.Done()
			j.drive(scheds[c], results[c], first, t0, kt)
		}(c, first)
		first += len(scheds[c])
	}
	heavyAt := t0.Add(kvWarm + light)
	if p.small {
		heavyAt = t0.Add(50*time.Millisecond + light)
	}
	time.Sleep(time.Until(heavyAt))
	s0 := takeSnap()
	clock := startWindows()
	svc0 := j.app.Counters()
	st0 := j.st.Counters()
	wg.Wait()
	// Windows end with the heavy schedule; requests still out after it
	// count in the window they were due in.
	wins := clock.finish(int64(heavyAt.Add(heavy).Sub(epoch)))
	s1 := takeSnap()
	svc1 := j.app.Counters()
	st1 := j.st.Counters()

	// Verification: every GET returned a value written for its key (or
	// not-found), and every key's final value is its last acked PUT.
	written := map[uint64]uint32{} // PUT value → key
	lastAck := map[uint32]uint64{}
	lastPut := map[uint32]uint64{}
	lastOK := map[uint32]bool{}
	for c, sched := range scheds {
		for i, rq := range sched {
			if rq.get {
				continue
			}
			written[rq.val] = rq.key
			lastPut[rq.key] = rq.val
			ok := results[c][i].status == http.StatusNoContent
			lastOK[rq.key] = ok
			if ok {
				lastAck[rq.key] = rq.val
			}
		}
	}
	var failed, attempted int64
	var lat [3][]float64 // by phase: all requests
	var getLat, putLat, late []float64
	var heavyDue []int64 // monoNs, parallel to lat[phHeavy]
	var good int
	var heavyEnd time.Duration // the last heavy-rate request's completion
	for c, sched := range scheds {
		for i, rq := range sched {
			res := results[c][i]
			attempted++
			if rq.phase == phHeavy {
				heavyEnd = max(heavyEnd, res.done)
				heavyDue = append(heavyDue, int64(t0.Add(rq.due).Sub(epoch)))
			}
			ok := res.status == http.StatusNoContent || res.status == http.StatusOK ||
				(rq.get && res.status == http.StatusNotFound)
			if rq.get && res.status == http.StatusOK {
				if k, w := written[res.val]; !w || k != rq.key {
					ok = false
				}
			}
			if !ok {
				failed++
			}
			l := float64(res.done-rq.due) / 1e3
			lat[rq.phase] = append(lat[rq.phase], l)
			late = append(late, float64(res.late)/1e3)
			if rq.phase == phHeavy {
				if rq.get {
					getLat = append(getLat, l)
				} else {
					putLat = append(putLat, l)
				}
				if ok && res.done-rq.due <= kvLimit {
					good++
				}
			}
		}
	}
	keys := make([]uint32, 0, len(lastPut))
	for k := range lastPut {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	finals, err := j.readBack(keys)
	if err != nil {
		return nil, err
	}
	var sum uint64
	for i, k := range keys {
		got := finals[i]
		if (lastOK[k] && got != lastAck[k]) || (!lastOK[k] && got != 0 && written[got] != k) {
			failed++
		}
		sum = splitmix64(sum ^ uint64(k)<<32 ^ got)
	}
	attempted += int64(len(keys))
	if err := j.stop(); err != nil {
		return nil, err
	}
	o.meshS = append(o.meshS, j.run.meshDone.Seconds())
	o.readyS = append(o.readyS, j.ready.Seconds()-j.run.meshDone.Seconds())
	o.checksum = sum
	o.attempted, o.failed = attempted, failed

	heavyN := len(lat[phHeavy])
	o.wins = windowStats(wins, heavyDue, lat[phHeavy], 1) // before quantile sorts lat
	o.opsCount = float64(good)
	// Goodput over the heavy phase as it ran: from its start until its
	// last request completed, which outlasts the schedule when the
	// system falls behind.
	o.opsPerS = float64(good) / (heavyEnd - heavyAt.Sub(t0)).Seconds()
	o.p50us = quantile(lat[phHeavy], 0.5)
	o.samples = map[string][]float64{"heavy": lat[phHeavy], "get": getLat, "put": putLat,
		"light": lat[phLight], "late": late}
	o.named = []namedMetric{
		{name: "goodput_rps", unit: "1/s", src: "ops"},
		{name: "heavy_p50_us", unit: "us", src: "heavy", q: 0.5},
		{name: "heavy_p99_us", unit: "us", src: "heavy", q: 0.99},
		{name: "get_p50_us", unit: "us", src: "get", q: 0.5},
		{name: "get_p99_us", unit: "us", src: "get", q: 0.99},
		{name: "put_p50_us", unit: "us", src: "put", q: 0.5},
		{name: "put_p99_us", unit: "us", src: "put", q: 0.99},
		{name: "light_p99_us", unit: "us", src: "light", q: 0.99},
		{name: "gen_late_p99_us", unit: "us", src: "late", q: 0.99},
	}
	o.resolve()
	ph := s0.to(s1)
	ph.counterMetrics(float64(heavyN), o.layer)
	o.layer["agg.maxops_avg"] = j.run.counterSum("agg_maxops_avg") / float64(kvCompute+1)
	o.layer["spmd.mesh_s"] = median(o.meshS)
	o.layer["spmd.ready_s"] = median(o.readyS)
	o.layer["bench.gen_late_p99_us"] = quantile(late, 0.99)
	if adm := svc1["svc.admitted"] - svc0["svc.admitted"] + svc1["svc.rejected"] - svc0["svc.rejected"]; adm > 0 {
		o.layer["svc.rejected_frac"] = (svc1["svc.rejected"] - svc0["svc.rejected"]) / adm
	}
	o.layer["svc.store_retries"] = st1["gate.retries"] - st0["gate.retries"]
	if tr != nil {
		kvTracedMetrics(o, tr, kt, j)
	}
	o.overheadFrac = func(u, t *outcome) float64 { return t.p50us/u.p50us - 1 }
	o.ladder = kvLadder
	o.path = []string{"bench.queue", "bench.client", "svc.http", "svc.store_get", "svc.store_put",
		"gasnet.wait", "gasnet.send_batch", "gasnet.batch_rtt", "gasnet.batch_rx", "gasnet.poll"}
	return o, nil
}

// readBack re-reads keys through the batch endpoint (0 = not found).
func (j *kvJob) readBack(keys []uint32) ([]uint64, error) {
	out := make([]uint64, 0, len(keys))
	for at := 0; at < len(keys); at += 512 {
		var b strings.Builder
		b.WriteString(`{"keys":[`)
		for i, k := range keys[at:min(at+512, len(keys))] {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`"` + kvKey(k) + `"`)
		}
		b.WriteString(`]}`)
		resp, err := j.client.Post(j.base+"/kv/batch/get", "application/json", strings.NewReader(b.String()))
		if err != nil {
			return nil, fmt.Errorf("kv read-back: %w", err)
		}
		var res struct {
			Items []struct {
				Value uint64 `json:"value"`
				Found bool   `json:"found"`
			} `json:"items"`
		}
		err = decodeJSON(resp, &res)
		if err != nil {
			return nil, fmt.Errorf("kv read-back: %w", err)
		}
		for _, it := range res.Items {
			if !it.Found {
				it.Value = 0
			}
			out = append(out, it.Value)
		}
	}
	if len(out) != len(keys) {
		return nil, fmt.Errorf("kv read-back: %d items for %d keys", len(out), len(keys))
	}
	return out, nil
}

func decodeJSON(resp *http.Response, into any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// kvLadderMargin is how far the sum of kv's traced rung medians may sit
// from the untraced GET and PUT p50 for the ladder to count as
// reconciled. The medians of parts do not add up exactly to the median
// of the whole, and the traced run carries its own overhead; both fit
// in this margin at the rates the workload runs.
const kvLadderMargin = 0.25

// kvTracedMetrics derives kv's per-layer timings from the traced run.
// The rungs of the ladder — generator queue, client, handler, store and
// the gateway's batch round trip — are kept per kind for kvLadder.
func kvTracedMetrics(o *outcome, tr *tracer, kt *kvTrace, j *kvJob) {
	h := tr.merged("svc.http")
	o.layer["svc.http_p50_us"] = h.quantile(0.5) / 1e3
	o.layer["svc.http_p99_us"] = h.quantile(0.99) / 1e3
	sg, sp := tr.merged("svc.store_get"), tr.merged("svc.store_put")
	o.layer["svc.store_get_p50_us"] = sg.quantile(0.5) / 1e3
	o.layer["svc.store_get_p99_us"] = sg.quantile(0.99) / 1e3
	o.layer["svc.store_put_p50_us"] = sp.quantile(0.5) / 1e3
	o.layer["svc.store_put_p99_us"] = sp.quantile(0.99) / 1e3
	b := tr.trackHist(kvCompute, "gasnet.batch_rtt") // the gateway rank's batches
	o.layer["gasnet.batch_rtt_p50_us"] = b.quantile(0.5) / 1e3
	o.layer["gasnet.batch_rtt_p99_us"] = b.quantile(0.99) / 1e3
	bar := tr.merged("gasnet.barrier")
	o.layer["gasnet.barrier_p50_us"] = bar.quantile(0.5) / 1e3
	o.layer["gasnet.barrier_p99_us"] = bar.quantile(0.99) / 1e3
	o.layer["gasnet.allgather_p50_us"] = tr.merged("gasnet.allgather").quantile(0.5) / 1e3
	var wall float64
	for _, st := range j.run.stats {
		wall += st.Wall.Seconds()
	}
	o.layer["gasnet.wait_frac"] = float64(tr.waitNs()) / (wall * 1e9)

	kt.mu.Lock()
	defer kt.mu.Unlock()
	var clientSelf []float64
	var rung [2][4][]float64 // [get, put][queue, client_self, http_self, store]
	for i := range kt.client {
		if kt.client[i] == 0 || kt.handler[i] == 0 {
			continue
		}
		cs := float64(kt.client[i]-kt.handler[i]) / 1e3
		clientSelf = append(clientSelf, cs)
		if kt.phase[i] != phHeavy {
			continue
		}
		k := 1
		if kt.isGet[i] {
			k = 0
		}
		rung[k][0] = append(rung[k][0], float64(kt.queue[i])/1e3)
		rung[k][1] = append(rung[k][1], cs)
		rung[k][2] = append(rung[k][2], float64(kt.handler[i]-kt.store[i])/1e3)
		rung[k][3] = append(rung[k][3], float64(kt.store[i])/1e3)
	}
	o.layer["svc.client_self_p50_us"] = quantile(clientSelf, 0.5)
	for k, kind := range []string{"get", "put"} {
		for r, name := range []string{"queue", "client_self", "http_self", "store"} {
			o.layer["kv.rung."+kind+"."+name] = quantile(rung[k][r], 0.5)
		}
		o.layer["kv.rung."+kind+".n"] = float64(len(rung[k][0]))
	}
	o.layer["kv.rung.batch_rtt"] = b.quantile(0.5) / 1e3
}

// kvLadder reconciles the traced rungs with the untraced GET and PUT
// p50: queue + client self + handler self + (store − batch RTT) + batch
// RTT, each a heavy-rate median, against the untraced heavy-rate p50.
func kvLadder(u, t *outcome) []string {
	lines := []string{fmt.Sprintf("kv ladder at the heavy rate (p50 us; margin %.0f%%):", kvLadderMargin*100),
		fmt.Sprintf("%-5s %8s %11s %9s %10s %9s %9s %10s %8s", "kind", "queue", "client_self",
			"http_self", "store_self", "batch_rtt", "sum", "untraced", "gap")}
	worst := 0.0
	for _, kind := range []string{"get", "put"} {
		r := func(n string) float64 { return t.layer["kv.rung."+kind+"."+n] }
		rtt := t.layer["kv.rung.batch_rtt"]
		sum := r("queue") + r("client_self") + r("http_self") + r("store")
		want := u.namedValue(kind + "_p50_us")
		gap := sum/want - 1
		if math.Abs(gap) > math.Abs(worst) {
			worst = gap
		}
		lines = append(lines, fmt.Sprintf("%-5s %8.1f %11.1f %9.1f %10.1f %9.1f %9.1f %10.1f %+7.1f%%  n=%d",
			kind, r("queue"), r("client_self"), r("http_self"), r("store")-rtt, rtt, sum, want, gap*100, int(r("n"))))
	}
	verdict := "reconciles"
	if math.Abs(worst) > kvLadderMargin {
		verdict = "does NOT reconcile"
	}
	lines = append(lines, fmt.Sprintf("ladder %s with the untraced p50 (worst gap %+.1f%%, margin %.0f%%)",
		verdict, worst*100, kvLadderMargin*100))
	t.layer["bench.ladder_gap_frac"] = math.Abs(worst)
	return lines
}
