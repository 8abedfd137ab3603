// Package transport provides byte-level message transports — the
// "network drivers" layer under the gasnet analog (paper Fig 2): framed
// active messages over TCP between separate endpoints, with handler
// dispatch by registered index.
//
// This is the substrate of gasnet's wire conduit: the core runtime runs
// over it whenever a job is launched multi-process (cmd/upcxx-run, or
// core.RunWire directly). The serializable operations — one-sided
// reads/writes, the xor atomic, remote allocation, barriers and
// collectives, lock traffic — all travel as these frames; only
// closure-carrying asyncs remain in-process-only, because Go closures
// do not serialize.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"upcxx/internal/fault"
	"upcxx/internal/frames"
	"upcxx/internal/obs"
)

// Message is one framed active message.
type Message struct {
	From    int32
	To      int32
	Handler uint16
	Arg     uint64
	Payload []byte

	// pooled marks a payload owned by the transport (rx-loop buffers
	// from internal/frames, SendOwned loopbacks): dispatch releases it
	// back to the pool after the handler returns unless the handler
	// called Retain.
	pooled bool
}

// MaxPayload bounds a frame's payload, both on send (oversized messages
// are rejected before any bytes hit the wire, so a half-written frame
// never corrupts the stream) and on receive (sanity limit against
// corrupt or hostile streams).
const MaxPayload = 16 << 20

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrPayloadTooLarge is returned by Send for payloads over MaxPayload.
var ErrPayloadTooLarge = errors.New("transport: payload exceeds MaxPayload")

// ErrPeerDown is the sentinel matched (via errors.Is) by every
// PeerDownError a survivable endpoint returns for sends to a lost peer.
var ErrPeerDown = errors.New("transport: peer down")

// PeerDownError reports a send addressed to a peer whose connection was
// lost while the endpoint survives in peer-down mode.
type PeerDownError struct {
	Peer  int
	Cause error
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("transport: peer %d down: %v", e.Peer, e.Cause)
}
func (e *PeerDownError) Is(target error) bool { return target == ErrPeerDown }
func (e *PeerDownError) Unwrap() error        { return e.Cause }

// Handler processes one delivered message on the receiving endpoint's
// polling goroutine.
type Handler func(ep *TCPEndpoint, m Message)

// Control frames exchanged between endpoints, outside the handler table:
// hello identifies the dialing rank during Connect; bye announces a
// clean close, so the EOF that follows it is teardown, not peer loss.
// peerDown is synthesized locally (never sent on the wire): when a
// survivable endpoint loses a peer, its reader goroutine enqueues one
// peerDown message through the inbox, so the loss is observed on the
// dispatch goroutine strictly after every frame that peer delivered.
// wake is synthesized locally by Wake, which enqueues one through the
// inbox so a blocked WaitFor re-runs its predicate, and sent over the
// wire by WakePeer, the doorbell of a peer's shared-memory rings. It
// carries no payload and dispatch treats it as a no-op.
const (
	helloHandler    uint16 = 0xFFFF
	byeHandler      uint16 = 0xFFFE
	peerDownHandler uint16 = 0xFFFD
	wakeHandler     uint16 = 0xFFFC
)

// Vectored send plane tuning.
const (
	// frameHdrLen is the fixed frame header: [to u32][from u32]
	// [handler u16][arg u64][len u64].
	frameHdrLen = 26
	// inlineMax is the largest payload copied into the header slab
	// instead of queued by reference: small control payloads (tokens,
	// offsets, stack-allocated request encodings) cost less to copy 26
	// bytes away from their header than to spend an iovec entry on, and
	// the copy ends the caller's borrow at Send return.
	inlineMax = 64
	// slabCap sizes the pooled header/inline slabs (a frames size
	// class; ~500 header+small-payload runs per slab).
	slabCap = 16 << 10
	// flushThreshold ships a peer's queue from inside Send once this
	// many bytes are queued, bounding memory under one-way storms.
	flushThreshold = 256 << 10
)

// outQ is one peer's vectored send queue: frame headers (and inlined
// small payloads) are carved from pooled slabs, large payloads are
// queued by reference, and the whole run ships as one
// net.Buffers.WriteTo — a single writev on a *net.TCPConn — per flush,
// so the tx path copies nothing it can scatter-gather. Guarded by the
// endpoint's mu.
type outQ struct {
	bufs  net.Buffers // iovec list, in frame order
	owned [][]byte    // pooled payloads released once shipped
	slab  []byte      // active header/inline slab (len = bytes used)
	slabs [][]byte    // retired slabs awaiting release
	run   int         // slab offset where bufs' open tail entry begins; -1 when sealed
	qn    int         // total queued bytes
}

// slabAppend copies p into the slab, extending the open tail iovec when
// p lands contiguously after it (headers and inline payloads of
// consecutive frames coalesce into one entry).
func (q *outQ) slabAppend(p []byte) {
	if q.slab == nil || len(q.slab)+len(p) > cap(q.slab) {
		if q.slab != nil {
			q.slabs = append(q.slabs, q.slab)
		}
		q.slab = frames.Get(slabCap)[:0]
		q.run = -1
	}
	start := len(q.slab)
	q.slab = append(q.slab, p...)
	if q.run >= 0 {
		q.bufs[len(q.bufs)-1] = q.slab[q.run:len(q.slab):len(q.slab)]
	} else {
		q.run = start
		q.bufs = append(q.bufs, q.slab[start:len(q.slab):len(q.slab)])
	}
	q.qn += len(p)
}

// refAppend queues p by reference as its own iovec entry, sealing the
// slab run (the next header starts a new entry, preserving frame order).
func (q *outQ) refAppend(p []byte) {
	q.run = -1
	q.bufs = append(q.bufs, p)
	q.qn += len(p)
}

// enqueue queues one frame. owned payloads are released by the queue
// (after the flush that ships them, or immediately when inlined);
// borrowed payloads stay aliased until the flush.
func (q *outQ) enqueue(m Message, owned bool) {
	var hdr [frameHdrLen]byte
	putHeader(hdr[:], m, len(m.Payload))
	q.slabAppend(hdr[:])
	switch {
	case len(m.Payload) == 0:
	case len(m.Payload) <= inlineMax:
		q.slabAppend(m.Payload)
		if owned {
			frames.Put(m.Payload)
		}
	default:
		q.refAppend(m.Payload)
		if owned {
			q.owned = append(q.owned, m.Payload)
		}
	}
}

// ship writes every queued byte to c with one vectored WriteTo and
// resets the queue (releasing owned payloads and retired slabs) whether
// or not the write succeeded — after an error the connection is dead
// and the bytes are gone either way.
func (q *outQ) ship(c net.Conn) error {
	if q.qn == 0 {
		return nil
	}
	bufs := q.bufs
	_, err := bufs.WriteTo(c)
	q.reset()
	return err
}

// reset drops queued state, returning owned payloads and retired slabs
// to the pool and keeping every slice's capacity for reuse.
func (q *outQ) reset() {
	for i := range q.bufs {
		q.bufs[i] = nil
	}
	q.bufs = q.bufs[:0]
	for i, b := range q.owned {
		frames.Put(b)
		q.owned[i] = nil
	}
	q.owned = q.owned[:0]
	for i, s := range q.slabs {
		frames.Put(s)
		q.slabs[i] = nil
	}
	q.slabs = q.slabs[:0]
	q.slab = q.slab[:0]
	q.run = -1
	q.qn = 0
}

// free releases everything including the active slab; the queue is dead.
func (q *outQ) free() {
	q.reset()
	frames.Put(q.slab)
	q.slab = nil
}

// TCPEndpoint is one rank's attachment to a full-mesh TCP fabric.
type TCPEndpoint struct {
	rank     int32
	n        int32
	ln       net.Listener
	handlers []Handler

	mu    sync.Mutex
	conns []net.Conn // by peer rank; nil for self
	qs    []*outQ    // vectored send queue per peer, same indexing

	// retained is the dispatch-scope flag Retain sets: the handler
	// currently executing keeps the pooled payload alive past its
	// return. Dispatch goroutine only.
	retained bool

	// near holds, by peer rank, the peer endpoints that live in this
	// process (nil for the rest); Connect fills it from inProcess.
	near []*TCPEndpoint

	inbox     chan Message
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	failMu  sync.Mutex
	failure error // first peer-connection loss; endpoint is torn down

	dropped atomic.Int64 // messages with no registered handler

	// Fault-injection seam: consulted on every outgoing remote frame.
	// Nil (the default) is a no-op. Set before Connect.
	inj *fault.Injector

	// Peer-down survival. By default a lost peer tears the whole
	// endpoint down (fail); installing a peer-down handler switches the
	// endpoint to survivable mode, where only that peer's connection is
	// retired and the loss is reported through the handler.
	survivable atomic.Bool
	peerDown   func(peer int, cause error) // runs on the dispatch goroutine
	downed     []atomic.Bool               // by peer rank
	downCause  []error                     // guarded by failMu

	// Optional periodic tick, run on the dispatch goroutine from
	// Poll/WaitFor (heartbeats, deadline sweeps). Set before use.
	tickEvery time.Duration
	tick      func()
	lastTick  time.Time

	// ring is this rank's span ring (nil unless tracing is on);
	// installed by the conduit via SetObs.
	ring *obs.Ring
}

// SetObs installs the rank's span ring on the endpoint's flush and
// blocking-wait paths.
func (ep *TCPEndpoint) SetObs(ring *obs.Ring) { ep.ring = ring }

// SetFault installs a fault injector consulted on every outgoing remote
// frame. A nil injector (the default) costs one predictable branch.
// Install before Connect.
func (ep *TCPEndpoint) SetFault(inj *fault.Injector) { ep.inj = inj }

// SetPeerDownHandler switches the endpoint to survivable peer loss:
// instead of tearing the whole endpoint down, a lost peer retires only
// its own connection, fn runs on the dispatch goroutine (after every
// frame that peer had already delivered), and subsequent sends to the
// peer return a PeerDownError. Without it the legacy whole-endpoint
// teardown applies.
func (ep *TCPEndpoint) SetPeerDownHandler(fn func(peer int, cause error)) {
	ep.failMu.Lock()
	ep.peerDown = fn
	ep.failMu.Unlock()
	ep.survivable.Store(fn != nil)
}

// SetTick installs fn to run on the dispatch goroutine roughly every d:
// from Poll when due, and on a timer while WaitFor blocks — which is
// what lets heartbeat and deadline machinery make progress while the
// rank sits in a blocking wait.
func (ep *TCPEndpoint) SetTick(d time.Duration, fn func()) {
	ep.tickEvery = d
	ep.tick = fn
	ep.lastTick = time.Now()
}

// runDueTick fires the tick if one is installed and due. Dispatch
// goroutine only.
func (ep *TCPEndpoint) runDueTick() {
	if ep.tick == nil {
		return
	}
	if now := time.Now(); now.Sub(ep.lastTick) >= ep.tickEvery {
		ep.lastTick = now
		ep.tick()
	}
}

// PeerDown reports whether peer's connection has been retired (only in
// survivable mode; a legacy endpoint tears down whole instead).
func (ep *TCPEndpoint) PeerDown(peer int) bool {
	return ep.downed != nil && ep.downed[peer].Load()
}

// peerDownErr builds the typed send error for a retired peer.
func (ep *TCPEndpoint) peerDownErr(peer int) error {
	ep.failMu.Lock()
	cause := ep.downCause[peer]
	ep.failMu.Unlock()
	return &PeerDownError{Peer: peer, Cause: cause}
}

// peerLost routes a dead peer connection: survivable endpoints retire
// just that peer, legacy endpoints tear down whole. Safe from any
// goroutine.
func (ep *TCPEndpoint) peerLost(peer int32, cause error) {
	if !ep.survivable.Load() {
		ep.fail(cause)
		return
	}
	ep.markPeerDown(peer, cause)
}

// markPeerDown retires one peer connection exactly once and enqueues
// the synthetic peerDown message behind everything the peer already
// delivered.
func (ep *TCPEndpoint) markPeerDown(peer int32, cause error) {
	if ep.downed[peer].Swap(true) {
		return
	}
	ep.failMu.Lock()
	ep.downCause[peer] = cause
	ep.failMu.Unlock()
	obs.Logf(1, int(ep.rank), "transport: peer %d down: %v", peer, cause)
	ep.mu.Lock()
	if c := ep.conns[peer]; c != nil {
		c.Close()
		ep.conns[peer] = nil
	}
	if ep.qs != nil && ep.qs[peer] != nil {
		ep.qs[peer].free()
		ep.qs[peer] = nil
	}
	ep.mu.Unlock()
	select {
	case ep.inbox <- Message{From: peer, To: ep.rank, Handler: peerDownHandler}:
	case <-ep.done:
	}
}

// Wake makes a WaitFor blocked on this endpoint re-evaluate its
// predicate by enqueueing a synthetic no-op message through the inbox.
// Safe to call from any goroutine, any number of times: it is how
// non-SPMD threads (an HTTP server, a signal handler) nudge the rank's
// progress loop after publishing work for it. When the inbox is full
// the wake is dropped — a full inbox means dispatch is active and the
// predicate is being re-checked anyway.
func (ep *TCPEndpoint) Wake() {
	select {
	case ep.inbox <- Message{From: ep.rank, To: ep.rank, Handler: wakeHandler}:
	default:
	}
}

// WakePeer is Wake addressed to another rank: it queues one wake frame
// on the connection to peer and ships that peer's queue at once, so a
// WaitFor blocked on peer's endpoint re-evaluates its predicate. It is
// the doorbell for work published outside the transport (a shared-
// memory ring): the frame carries no payload and dispatch on the
// receiving side treats it as a no-op. peer must be another rank.
//
// A peer endpoint in this same process (ranks run as goroutines of one
// process) is woken through its inbox directly. A frame would reach it
// only through the Go network poller, which runs when the process has
// no runnable goroutine, so co-resident ranks that are busy or spinning
// would hold the wake back for up to the runtime's 10 ms fallback poll.
func (ep *TCPEndpoint) WakePeer(peer int) error {
	if n := ep.near[peer]; n != nil {
		n.Wake()
		return nil
	}
	select {
	case <-ep.done:
		return ep.closedErr()
	default:
	}
	ep.mu.Lock()
	q := ep.qs[peer]
	if q == nil {
		ep.mu.Unlock()
		return fmt.Errorf("transport: no connection to rank %d", peer)
	}
	q.enqueue(Message{From: ep.rank, To: int32(peer), Handler: wakeHandler}, false)
	err := q.ship(ep.conns[peer])
	ep.mu.Unlock()
	if err != nil {
		return ep.flushFailed(int32(peer), err)
	}
	return nil
}

// SeverPeer forcibly closes the connection to peer, as if the link had
// died: the local side observes peer loss through the usual path
// (peer-down in survivable mode, teardown otherwise) and the remote
// side sees an unannounced EOF.
func (ep *TCPEndpoint) SeverPeer(peer int, cause error) {
	if cause == nil {
		cause = fmt.Errorf("transport: rank %d severed connection to rank %d", ep.rank, peer)
	}
	ep.peerLost(int32(peer), cause)
}

// Abort closes the endpoint immediately WITHOUT the goodbye exchange,
// so every peer observes the close as unannounced peer loss — the
// in-process simulation of a killed rank.
func (ep *TCPEndpoint) Abort() { ep.shutdown() }

// fail records the first peer-loss error and tears the endpoint down so
// every blocked operation returns it instead of hanging. Called from
// reader goroutines, so it must not wait for them (see Close).
func (ep *TCPEndpoint) fail(err error) {
	ep.failMu.Lock()
	if ep.failure == nil {
		ep.failure = err
	}
	ep.failMu.Unlock()
	ep.shutdown()
}

// Err returns the peer-loss error that tore the endpoint down, or nil.
func (ep *TCPEndpoint) Err() error {
	ep.failMu.Lock()
	defer ep.failMu.Unlock()
	return ep.failure
}

// closedErr is what blocked operations return once done is closed: the
// peer-loss cause when there is one, plain ErrClosed otherwise.
func (ep *TCPEndpoint) closedErr() error {
	if err := ep.Err(); err != nil {
		return err
	}
	return ErrClosed
}

// Rank returns this endpoint's rank; Ranks the job size.
func (ep *TCPEndpoint) Rank() int  { return int(ep.rank) }
func (ep *TCPEndpoint) Ranks() int { return int(ep.n) }

// Dropped reports how many delivered messages named a handler index
// that was out of range or unregistered (each is dropped rather than
// crashing the dispatch loop; a correct peer never sends one).
func (ep *TCPEndpoint) Dropped() int64 { return ep.dropped.Load() }

// Retain transfers ownership of the payload being dispatched to the
// calling handler: the transport will not recycle it when the handler
// returns. Handlers that park a payload past their return (the wire
// conduit's reply map) must call it; handlers that consume or copy the
// payload synchronously must not. Valid only while a handler executes,
// on the dispatch goroutine.
func (ep *TCPEndpoint) Retain() { ep.retained = true }

// dispatch routes one message to its handler, tolerating bogus indices.
// Pooled payloads (rx-loop buffers, owned loopbacks) return to the
// frame pool when the handler does — unless it called Retain — which is
// what keeps the steady-state receive loop at zero allocations per
// frame.
func (ep *TCPEndpoint) dispatch(m Message) {
	if m.Handler == wakeHandler {
		return // delivery itself was the point: WaitFor re-runs its predicate
	}
	if m.Handler == peerDownHandler {
		ep.failMu.Lock()
		fn, cause := ep.peerDown, ep.downCause[m.From]
		ep.failMu.Unlock()
		if fn != nil {
			fn(int(m.From), cause)
		}
		return
	}
	if int(m.Handler) >= len(ep.handlers) || ep.handlers[m.Handler] == nil {
		ep.dropped.Add(1)
		if m.pooled {
			frames.Put(m.Payload)
		}
		return
	}
	ep.retained = false
	ep.handlers[m.Handler](ep, m)
	if m.pooled && !ep.retained {
		frames.Put(m.Payload)
	}
}

// putHeader serializes a frame header announcing an n-byte payload:
// [to][from][handler][arg][len].
func putHeader(hdr []byte, m Message, n int) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(m.To))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.From))
	binary.LittleEndian.PutUint16(hdr[8:], m.Handler)
	binary.LittleEndian.PutUint64(hdr[10:], m.Arg)
	binary.LittleEndian.PutUint64(hdr[18:], uint64(n))
}

// writeFrame serializes one message directly to w (the Connect hello
// exchange; steady-state traffic goes through the vectored queues).
func writeFrame(w io.Writer, m Message) error {
	var hdr [frameHdrLen]byte
	putHeader(hdr[:], m, len(m.Payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(m.Payload)
	return err
}

// readFrame deserializes one message. The payload buffer comes from the
// frame pool; dispatch releases it after the handler runs (see Retain).
func readFrame(r io.Reader) (Message, error) {
	var hdr [frameHdrLen]byte
	return readFrameHdr(r, &hdr)
}

// readFrameHdr is readFrame with a caller-provided header scratch
// buffer: hdr escapes through the io.ReadFull interface call, so the
// reader loop hoists one out of its per-frame path instead of heap-
// allocating 26 bytes per received frame.
func readFrameHdr(r io.Reader, hdr *[frameHdrLen]byte) (Message, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	m := Message{
		To:      int32(binary.LittleEndian.Uint32(hdr[0:])),
		From:    int32(binary.LittleEndian.Uint32(hdr[4:])),
		Handler: binary.LittleEndian.Uint16(hdr[8:]),
		Arg:     binary.LittleEndian.Uint64(hdr[10:]),
	}
	n := binary.LittleEndian.Uint64(hdr[18:])
	if n > MaxPayload {
		return Message{}, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	if n > 0 {
		m.Payload = frames.Get(int(n))
		m.pooled = true
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			frames.Put(m.Payload)
			return Message{}, err
		}
	}
	return m, nil
}

// inProcess maps the listen address of every open endpoint of this
// process to the endpoint, so WakePeer can tell a co-resident peer.
var inProcess sync.Map

// ListenTCP creates an endpoint for the given rank of an n-rank job,
// listening on addr (use "127.0.0.1:0" to pick a free port). Connect must
// be called with everyone's advertised addresses before sending.
func ListenTCP(rank, n int, addr string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ep := &TCPEndpoint{
		rank:      int32(rank),
		n:         int32(n),
		ln:        ln,
		handlers:  make([]Handler, 256),
		conns:     make([]net.Conn, n),
		inbox:     make(chan Message, 1024),
		done:      make(chan struct{}),
		downed:    make([]atomic.Bool, n),
		downCause: make([]error, n),
		near:      make([]*TCPEndpoint, n),
	}
	inProcess.Store(ep.Addr(), ep)
	return ep, nil
}

// Addr returns the endpoint's advertised listen address.
func (ep *TCPEndpoint) Addr() string { return ep.ln.Addr().String() }

// Register installs a handler at the given index (all endpoints must
// agree on the mapping, as with GASNet handler tables).
func (ep *TCPEndpoint) Register(idx uint16, h Handler) { ep.handlers[idx] = h }

// Connect wires the full mesh: ranks below us dial in, we dial ranks
// above us (a deterministic pairing that avoids duplicate connections).
// addrs is indexed by rank.
func (ep *TCPEndpoint) Connect(addrs []string) error {
	var wg sync.WaitGroup
	var acceptErr error
	expect := int(ep.rank) // ranks 0..rank-1 dial us
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < expect; i++ {
			c, err := ep.ln.Accept()
			if err != nil {
				acceptErr = err
				return
			}
			// The dialer announces itself with one frame.
			m, err := readFrame(c)
			if err != nil {
				acceptErr = err
				return
			}
			ep.mu.Lock()
			ep.conns[m.From] = c
			ep.mu.Unlock()
		}
	}()
	for r := int(ep.rank) + 1; r < int(ep.n); r++ {
		c, err := net.Dial("tcp", addrs[r])
		if err != nil {
			return fmt.Errorf("transport: rank %d dialing %d: %w", ep.rank, r, err)
		}
		if err := writeFrame(c, Message{From: ep.rank, To: int32(r), Handler: helloHandler}); err != nil {
			return err
		}
		ep.mu.Lock()
		ep.conns[r] = c
		ep.mu.Unlock()
	}
	wg.Wait()
	if acceptErr != nil {
		return acceptErr
	}
	for r, a := range addrs {
		if v, ok := inProcess.Load(a); ok && r != int(ep.rank) {
			ep.near[r] = v.(*TCPEndpoint)
		}
	}
	// Give every connection a vectored send queue: frames accumulate as
	// header-slab and payload iovecs and ship as one writev-backed
	// WriteTo per flush, instead of a syscall pair (or a copy into a
	// buffered writer) each — which is what lets pipelined non-blocking
	// operations (GetAsync storms, the aggregation plane) actually
	// overlap, with zero payload copies on the tx path. Flushed whenever
	// this rank is about to block (WaitFor), at the end of every Poll,
	// and inline once a queue passes flushThreshold, so no frame can sit
	// queued while its sender sleeps.
	ep.qs = make([]*outQ, ep.n)
	for r, c := range ep.conns {
		if c != nil {
			ep.qs[r] = &outQ{run: -1}
		}
	}
	// One reader goroutine per peer feeds the inbox. A read error with
	// the endpoint still open means the peer died mid-job: surface it
	// and tear down, so ranks blocked on that peer fail loudly instead
	// of hanging (and a launcher's smoke run exits instead of timing out).
	for r := int32(0); r < ep.n; r++ {
		if r == ep.rank {
			continue
		}
		conn := ep.conns[r]
		ep.wg.Add(1)
		go func(peer int32, c net.Conn) {
			defer ep.wg.Done()
			sawBye := false
			var hdr [frameHdrLen]byte // one header scratch per reader, not per frame
			for {
				m, err := readFrameHdr(c, &hdr)
				if err != nil {
					if sawBye {
						return // peer announced a clean close
					}
					select {
					case <-ep.done: // deliberate Close on our side
					default:
						ep.peerLost(peer, fmt.Errorf("transport: rank %d lost connection to rank %d: %w",
							ep.rank, peer, err))
					}
					return
				}
				if m.Handler == byeHandler {
					sawBye = true
					continue
				}
				select {
				case ep.inbox <- m:
				case <-ep.done:
					return
				}
			}
		}(r, conn)
	}
	return nil
}

// Send queues a message for the target rank (loopback is delivered
// through the inbox like any other message). Remote frames accumulate
// in a per-peer vectored queue and ship when the queue passes the
// inline-flush threshold, when this endpoint is about to block in
// WaitFor, at the end of Poll, or at an explicit Flush — so a caller
// that sends and then stops making progress calls must Flush.
//
// Ownership: Send BORROWS the payload until the flush that ships it
// (payloads of at most inlineMax bytes are copied at the call, ending
// the borrow immediately). Callers that mutate or recycle the payload
// before then must use SendOwned. Payloads over MaxPayload and sends on
// a closed endpoint are rejected up front.
func (ep *TCPEndpoint) Send(m Message) error { return ep.enqueue(m, false) }

// SendOwned is Send with ownership transfer: the payload belongs to the
// transport from the call on and is released to the frame pool once the
// frame has shipped (or on any error path), so callers can hand over
// pooled buffers without waiting for a flush. The caller must not touch
// the payload after the call.
func (ep *TCPEndpoint) SendOwned(m Message) error { return ep.enqueue(m, true) }

// disposeOwned releases an owned payload on a path where the frame
// never ships.
func disposeOwned(m Message, owned bool) {
	if owned {
		frames.Put(m.Payload)
	}
}

func (ep *TCPEndpoint) enqueue(m Message, owned bool) error {
	if len(m.Payload) > MaxPayload {
		disposeOwned(m, owned)
		return fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, len(m.Payload))
	}
	select {
	case <-ep.done:
		disposeOwned(m, owned)
		return ep.closedErr()
	default:
	}
	m.From = ep.rank
	if m.To == ep.rank {
		// Loopback: an owned payload rides the pooled-release path
		// through dispatch, exactly like an rx buffer.
		m.pooled = owned
		select {
		case ep.inbox <- m:
			return nil
		case <-ep.done:
			disposeOwned(m, owned)
			return ep.closedErr()
		}
	}
	if ep.downed[m.To].Load() {
		disposeOwned(m, owned)
		return ep.peerDownErr(int(m.To))
	}
	if act, fired := ep.inj.OnSend(int(m.To), m.Handler); fired {
		switch act.Kind {
		case fault.Drop:
			disposeOwned(m, owned)
			return nil // the frame silently vanishes
		case fault.Delay:
			time.Sleep(act.Delay)
		case fault.Sever:
			// The sever writes a header-only torn frame; the payload
			// itself never ships (severFrame reads only its length).
			disposeOwned(m, owned)
			return ep.severFrame(m)
		}
	}
	ep.mu.Lock()
	q := ep.qs[m.To]
	if q == nil {
		ep.mu.Unlock()
		disposeOwned(m, owned)
		return fmt.Errorf("transport: no connection to rank %d", m.To)
	}
	q.enqueue(m, owned)
	var err error
	if q.qn >= flushThreshold {
		err = q.ship(ep.conns[m.To])
	}
	ep.mu.Unlock()
	if err != nil {
		return ep.flushFailed(m.To, err)
	}
	return nil
}

// flushFailed routes a failed vectored write into the peer-loss path
// (outside ep.mu — markPeerDown retakes it) and returns the typed send
// error the caller should see.
func (ep *TCPEndpoint) flushFailed(peer int32, err error) error {
	cause := fmt.Errorf("transport: rank %d flushing to rank %d: %w", ep.rank, peer, err)
	ep.peerLost(peer, cause)
	if ep.survivable.Load() {
		return ep.peerDownErr(int(peer))
	}
	return cause
}

// severFrame executes an injected mid-frame sever: it writes only the
// frame header (announcing a payload that never follows) and closes
// the connection, so the peer's next read fails with an unexpected EOF
// partway through a frame — the worst-shaped cut a real link failure
// produces. The local side then routes through the normal peer-loss
// path and the caller gets the typed peer-down error.
func (ep *TCPEndpoint) severFrame(m Message) error {
	ep.mu.Lock()
	if q := ep.qs[m.To]; q != nil {
		var hdr [frameHdrLen]byte
		putHeader(hdr[:], m, len(m.Payload)+1)
		q.slabAppend(hdr[:])
		_ = q.ship(ep.conns[m.To])
	}
	c := ep.conns[m.To]
	ep.mu.Unlock()
	cause := fmt.Errorf("transport: fault injection severed rank %d's connection to rank %d mid-frame",
		ep.rank, m.To)
	if c != nil {
		c.Close()
	}
	ep.peerLost(m.To, cause)
	if ep.survivable.Load() {
		return ep.peerDownErr(int(m.To))
	}
	return cause
}

// Flush ships every queued frame now. Callers that send and then
// neither poll nor wait (a collective root answering its children
// after its own wait completed) must flush, or the frames sit queued
// while the peers sleep.
func (ep *TCPEndpoint) Flush() { ep.flushOut() }

// flushOut ships every queued frame, one vectored write per peer. A
// failed write means that peer's connection is dead: the failure routes
// into the peer-loss path (peer-down retirement in survivable mode,
// whole-endpoint teardown otherwise) after ep.mu is released — so a
// dead peer surfaces at flush time instead of waiting for the reader
// goroutine to notice, and a flush error is never silently swallowed.
func (ep *TCPEndpoint) flushOut() {
	var failedPeers []int32
	var failedErrs []error
	ep.mu.Lock()
	buffered := 0
	for r, q := range ep.qs {
		if q == nil || q.qn == 0 {
			continue
		}
		buffered += q.qn
		if err := q.ship(ep.conns[r]); err != nil {
			failedPeers = append(failedPeers, int32(r))
			failedErrs = append(failedErrs, err)
		}
	}
	ep.mu.Unlock()
	if buffered > 0 && ep.ring != nil {
		ep.ring.Instant(obs.KNetFlush, -1, uint32(buffered), 0)
	}
	// Route failures outside ep.mu: markPeerDown retakes it.
	for i, peer := range failedPeers {
		_ = ep.flushFailed(peer, failedErrs[i])
	}
}

// Poll dispatches queued messages to their handlers without blocking and
// reports how many ran. Buffered outgoing frames (including replies the
// handlers just wrote) are flushed before returning.
func (ep *TCPEndpoint) Poll() int {
	n := 0
	for {
		select {
		case m := <-ep.inbox:
			ep.dispatch(m)
			n++
		default:
			ep.runDueTick()
			ep.flushOut()
			return n
		}
	}
}

// WaitFor polls (blocking) until pred() is true. Buffered outgoing
// frames are flushed whenever the wait is about to block, so a peer
// can never be left waiting on a frame parked in our write buffer.
func (ep *TCPEndpoint) WaitFor(pred func() bool) error {
	if !pred() && ep.ring != nil {
		ep.ring.Begin(obs.KNetWait, -1, 0)
		defer ep.ring.End(obs.KNetWait)
	}
	for !pred() {
		select {
		case m := <-ep.inbox:
			ep.dispatch(m)
			continue
		default:
		}
		ep.flushOut()
		if ep.tick != nil {
			// With a tick installed the blocking wait must still wake
			// periodically: heartbeats and deadline sweeps are what turn
			// a silently lost peer into progress on this very wait.
			timer := time.NewTimer(ep.tickEvery)
			select {
			case m := <-ep.inbox:
				ep.dispatch(m)
			case <-timer.C:
				ep.lastTick = time.Now()
				ep.tick()
			case <-ep.done:
				timer.Stop()
				return ep.closedErr()
			}
			timer.Stop()
			continue
		}
		select {
		case m := <-ep.inbox:
			ep.dispatch(m)
		case <-ep.done:
			return ep.closedErr()
		}
	}
	ep.flushOut()
	return nil
}

// Goodbye announces a clean close to every peer, so the EOF they see
// when this endpoint closes reads as orderly teardown rather than peer
// loss. Call it only after the job's final synchronization point, right
// before Close; a rank that dies early must NOT say goodbye — the
// unannounced EOF is what propagates the abort to its peers.
func (ep *TCPEndpoint) Goodbye() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for r, q := range ep.qs {
		if q == nil {
			continue
		}
		// Best-effort: an unreachable peer is already tearing down.
		q.enqueue(Message{From: ep.rank, To: int32(r), Handler: byeHandler}, false)
		_ = q.ship(ep.conns[r])
	}
}

// shutdown closes the listener and every connection without waiting for
// the reader goroutines (fail is called from one of them).
func (ep *TCPEndpoint) shutdown() {
	ep.closeOnce.Do(func() {
		inProcess.CompareAndDelete(ep.Addr(), ep)
		close(ep.done)
		ep.ln.Close()
		ep.mu.Lock()
		for _, c := range ep.conns {
			if c != nil {
				c.Close()
			}
		}
		ep.mu.Unlock()
	})
}

// Close tears the endpoint down; safe to call more than once.
func (ep *TCPEndpoint) Close() error {
	ep.shutdown()
	ep.wg.Wait()
	return nil
}
