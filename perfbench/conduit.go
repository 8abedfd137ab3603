package main

import (
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// tracedConduit decorates a gasnet.Conduit for the traced run. It
// forwards every call to the wrapped conduit and records a span around
// it on the rank's track; asynchronous completions (a batch's ack, an
// async put's onDone) are recorded from issue to callback. It
// advertises exactly the wrapped conduit's non-nil Caps fields, each
// pointing back at the decorator, so the runtime sees the same
// capability set — and therefore runs the same program — as untraced.
type tracedConduit struct {
	in    gasnet.Conduit
	caps  gasnet.Caps
	tk    *track
	nodes []int // host of every rank, for the intra/inter put split
}

func newTracedConduit(in gasnet.Conduit, tk *track, nodes []int) *tracedConduit {
	return &tracedConduit{in: in, caps: in.Capabilities(), tk: tk, nodes: nodes}
}

// putName names a put span by whether the target shares this rank's host.
func (c *tracedConduit) putName(rank int) string {
	if c.nodes != nil && rank != c.in.Rank() && c.nodes[rank] == c.nodes[c.in.Rank()] {
		return "gasnet.put_intra"
	}
	return "gasnet.put_inter"
}

func (c *tracedConduit) Rank() int         { return c.in.Rank() }
func (c *tracedConduit) Ranks() int        { return c.in.Ranks() }
func (c *tracedConduit) WireCapable() bool { return c.in.WireCapable() }
func (c *tracedConduit) LockNew() uint64   { return c.in.LockNew() }
func (c *tracedConduit) Close() error      { return c.in.Close() }

func (c *tracedConduit) Get(rank int, off uint64, p []byte) error {
	c.tk.begin("gasnet.get", 0)
	err := c.in.Get(rank, off, p)
	c.tk.end()
	return err
}

func (c *tracedConduit) Put(rank int, off uint64, p []byte) error {
	c.tk.begin(c.putName(rank), 0)
	err := c.in.Put(rank, off, p)
	c.tk.end()
	return err
}

func (c *tracedConduit) Xor64(rank int, off uint64, val uint64) (uint64, error) {
	c.tk.begin("gasnet.xor64", 0)
	v, err := c.in.Xor64(rank, off, val)
	c.tk.end()
	return v, err
}

func (c *tracedConduit) Alloc(rank int, size uint64) (uint64, error) {
	c.tk.begin("gasnet.alloc", 0)
	off, err := c.in.Alloc(rank, size)
	c.tk.end()
	return off, err
}

func (c *tracedConduit) Free(rank int, off uint64) error {
	c.tk.begin("gasnet.free", 0)
	err := c.in.Free(rank, off)
	c.tk.end()
	return err
}

func (c *tracedConduit) Barrier() error {
	c.tk.begin("gasnet.barrier", 0)
	w := c.tk.blockEnter()
	err := c.in.Barrier()
	c.tk.blockExit(w)
	c.tk.end()
	return err
}

func (c *tracedConduit) AllGather(contrib []byte) ([][]byte, error) {
	c.tk.begin("gasnet.allgather", 0)
	w := c.tk.blockEnter()
	out, err := c.in.AllGather(contrib)
	c.tk.blockExit(w)
	c.tk.end()
	return out, err
}

func (c *tracedConduit) LockAcquire(home int, id uint64, try bool) (bool, error) {
	c.tk.begin("gasnet.lock_acquire", 0)
	ok, err := c.in.LockAcquire(home, id, try)
	c.tk.end()
	return ok, err
}

func (c *tracedConduit) LockRelease(home int, id uint64) error {
	c.tk.begin("gasnet.lock_release", 0)
	err := c.in.LockRelease(home, id)
	c.tk.end()
	return err
}

func (c *tracedConduit) Poll() int {
	c.tk.begin("gasnet.poll", 0)
	n := c.in.Poll()
	c.tk.end()
	return n
}

// Capabilities mirrors the wrapped conduit's extension set field by
// field: a field is the decorator exactly when the wrapped one is
// non-nil.
func (c *tracedConduit) Capabilities() gasnet.Caps {
	var out gasnet.Caps
	if c.caps.Batch != nil {
		out.Batch = c
	}
	if c.caps.Async != nil {
		out.Async = c
	}
	if c.caps.Resilient != nil {
		out.Resilient = c
	}
	if c.caps.Teams != nil {
		out.Teams = c
	}
	if c.caps.Counters != nil {
		out.Counters = c
	}
	if c.caps.Locality != nil {
		out.Locality = c
	}
	if c.caps.Waker != nil {
		out.Waker = c
	}
	return out
}

// SetObs forwards the runtime's span ring when the wrapped conduit
// takes one.
func (c *tracedConduit) SetObs(ring *obs.Ring) {
	if so, ok := c.in.(interface{ SetObs(*obs.Ring) }); ok {
		so.SetObs(ring)
	}
}

// ---- BatchConduit ----

func (c *tracedConduit) SendBatch(to int, payload []byte, onAck func()) error {
	start := c.tk.tr.now()
	parent := c.tk.current()
	c.tk.begin("gasnet.send_batch", 0)
	err := c.caps.Batch.SendBatch(to, payload, func() {
		c.tk.async("gasnet.batch_rtt", start, c.tk.tr.now(), parent, 0)
		onAck()
	})
	c.tk.end()
	return err
}

func (c *tracedConduit) SetBatchHandler(fn func(from int, payload []byte)) {
	c.caps.Batch.SetBatchHandler(func(from int, payload []byte) {
		c.tk.begin("gasnet.batch_rx", 0)
		fn(from, payload)
		c.tk.end()
	})
}

func (c *tracedConduit) WaitFor(pred func() bool) error {
	c.tk.begin("gasnet.wait", 0)
	w := c.tk.blockEnter()
	err := c.caps.Batch.WaitFor(pred)
	c.tk.blockExit(w)
	c.tk.end()
	return err
}

// ---- AsyncConduit ----

func (c *tracedConduit) GetAsync(rank int, off uint64, p []byte, timeout time.Duration, onDone func(err error)) error {
	start, parent := c.tk.tr.now(), c.tk.current()
	return c.caps.Async.GetAsync(rank, off, p, timeout, func(err error) {
		c.tk.async("gasnet.get_async", start, c.tk.tr.now(), parent, 0)
		onDone(err)
	})
}

func (c *tracedConduit) PutAsync(rank int, off uint64, p []byte, timeout time.Duration, onDone func(err error)) error {
	start, parent := c.tk.tr.now(), c.tk.current()
	name := c.putName(rank)
	return c.caps.Async.PutAsync(rank, off, p, timeout, func(err error) {
		c.tk.async(name, start, c.tk.tr.now(), parent, 0)
		onDone(err)
	})
}

// ---- ResilientConduit ----

func (c *tracedConduit) EnableResilience(rc gasnet.ResilienceConfig, onRankDeath func(rank int)) {
	c.caps.Resilient.EnableResilience(rc, onRankDeath)
}
func (c *tracedConduit) RankDead(rank int) bool           { return c.caps.Resilient.RankDead(rank) }
func (c *tracedConduit) After(d time.Duration, fn func()) { c.caps.Resilient.After(d, fn) }
func (c *tracedConduit) Abort()                           { c.caps.Resilient.Abort() }
func (c *tracedConduit) Counters() map[string]float64     { return c.caps.Counters.Counters() }
func (c *tracedConduit) Nodes() []int                     { return c.caps.Locality.Nodes() }
func (c *tracedConduit) Wake()                            { c.caps.Waker.Wake() }

// ---- TeamConduit ----

func (c *tracedConduit) TeamAllGather(key uint64, members []int, contrib []byte) ([][]byte, error) {
	c.tk.begin("gasnet.allgather", 0)
	w := c.tk.blockEnter()
	out, err := c.caps.Teams.TeamAllGather(key, members, contrib)
	c.tk.blockExit(w)
	c.tk.end()
	return out, err
}

func (c *tracedConduit) TeamBarrier(key uint64, members []int) error {
	c.tk.begin("gasnet.barrier", 0)
	w := c.tk.blockEnter()
	err := c.caps.Teams.TeamBarrier(key, members)
	c.tk.blockExit(w)
	c.tk.end()
	return err
}

// tracedMemory decorates the segment as the conduit's rx path (and its
// self fast path) sees it: remote puts landing, remote and local xors.
type tracedMemory struct {
	in gasnet.Memory
	tk *track
	// rxBytes counts bytes written through Write, for rx_bytes_per_op.
	rxBytes int64
}

func (m *tracedMemory) Read(off uint64, p []byte) {
	m.tk.begin("segment.read", 0)
	m.in.Read(off, p)
	m.tk.end()
}

func (m *tracedMemory) Write(off uint64, p []byte) {
	m.tk.begin("segment.write", 0)
	m.in.Write(off, p)
	m.tk.end()
	m.rxBytes += int64(len(p))
}

func (m *tracedMemory) Xor64(off, val uint64) uint64 {
	m.tk.begin("segment.xor64", 0)
	v := m.in.Xor64(off, val)
	m.tk.end()
	return v
}

func (m *tracedMemory) Alloc(size uint64) (uint64, error) { return m.in.Alloc(size) }
func (m *tracedMemory) Free(off uint64) error             { return m.in.Free(off) }
