package gasnet

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"

	"upcxx/internal/obs"
)

// ShmConduit is the intra-host communication substrate of the
// hierarchical backend: every co-located rank owns one mmap'd file
// holding its shared segment plus one lock-free SPSC ring per co-located
// peer, so same-host puts and gets are direct loads and stores (the
// shared-memory bypass real GASNet conduits perform with PSHM) and
// same-host active messages are ring writes — no kernel round trip, no
// wire frame. It is not a full Conduit: HierConduit composes it with a
// WireConduit, routing each operation by peer locality.
//
// File layout (rank i's file, rank<i>.shm in the job's shm directory):
//
//	[64B header: magic, nLocal, ringBytes, segBytes, park u64 @32]
//	nLocal ring blocks of 128+ringBytes each — block j carries messages
//	  from local rank j to local rank i (the self block is unused):
//	    [head u64 @0, consumer-owned] [tail u64 @64, producer-owned]
//	    [ringBytes of record data]
//	[segBytes of shared segment]
//
// head/tail are monotonically increasing byte counts (position = count
// mod ringBytes); the 64-byte spacing keeps the two control words on
// separate cache lines. Records are 8-byte aligned:
//
//	[len u32 (bit31 = more-fragments)] [handler u16] [pad u16] [arg u64]
//	[payload, padded to 8]
//
// Payloads longer than ringBytes/4 are fragmented (the more-fragments
// bit chains them); SPSC ordering makes reassembly a plain append.
//
// The park word is the rings' wakeup: a consumer about to block sets
// its own word (park), re-checks its rings, then sleeps in some other
// blocking wait; a producer that publishes a record and finds the
// word set clears it and rings the doorbell (SetDoorbell) — in the
// hierarchical conduit a wake of that rank's wire endpoint. Both sides store then load (producer: tail, then park word;
// consumer: park word, then tails), and Go's atomics are sequentially
// consistent, so at least one side sees the other's store: either the
// consumer finds the record before it blocks or the producer finds the
// word set and wakes it.
//
// Setup is two-phase to avoid a filesystem race: every rank Creates its
// own file before the job rendezvous, then Attaches to its peers' files
// after — so by the time any rank attaches, every file exists at full
// size.
//
// Like the wire conduit, an ShmConduit must be driven by a single
// goroutine (its rank's SPMD goroutine); handlers execute inside Poll.
type ShmConduit struct {
	dir       string
	me        int // local index among co-located ranks
	n         int // number of co-located ranks
	ringBytes int
	segBytes  int

	files  [][]byte // mmap per local rank's file (files[me] created, rest attached)
	closed bool

	handlers map[uint16]func(from int, arg uint64, payload []byte)
	partial  [][]byte // per-producer fragment accumulator
	// idle runs in the producer's full-ring spin loop; HierConduit hooks
	// the wire poll here so a rank stalled on a full ring keeps serving
	// its cross-host peers.
	idle func()
	// doorbell wakes local rank j after a push found j parked (nil: no
	// rank of this fleet ever parks).
	doorbell func(j int)

	// Traffic counters: written on the SPMD goroutine, read live by the
	// debug plane, hence atomics.
	txMsgs, rxMsgs, txBytes, rxBytes atomic.Int64

	// ring is this rank's span ring (nil unless tracing is on);
	// installed via SetObs.
	obsRing *obs.Ring
}

const (
	shmMagic     = 0x75706378782d7368 // "upcxx-sh"
	shmHdrBytes  = 64
	shmParkOff   = 32 // the owner's park word inside its file header
	shmCtlBytes  = 128
	shmRecHdr    = 16
	shmMoreFlag  = 1 << 31
	shmAlignMask = 7

	// DefaultShmRingBytes is the per-peer ring capacity when the caller
	// passes 0.
	DefaultShmRingBytes = 1 << 20
	minShmRingBytes     = 4096
)

// ShmPath returns rank me's shm file path inside dir.
func ShmPath(dir string, me int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%d.shm", me))
}

func shmFileSize(n, ringBytes, segBytes int) int {
	return shmHdrBytes + n*(shmCtlBytes+ringBytes) + segBytes
}

// CreateShm creates and maps this rank's own shm file (local index me of
// n co-located ranks, each with a segBytes shared segment). ringBytes 0
// takes the default. Call before the job rendezvous; Attach after.
func CreateShm(dir string, me, n, ringBytes, segBytes int) (*ShmConduit, error) {
	if ringBytes <= 0 {
		ringBytes = DefaultShmRingBytes
	}
	if ringBytes < minShmRingBytes {
		ringBytes = minShmRingBytes
	}
	ringBytes = (ringBytes + shmAlignMask) &^ shmAlignMask
	if me < 0 || me >= n {
		return nil, fmt.Errorf("gasnet: shm local index %d out of %d", me, n)
	}
	size := shmFileSize(n, ringBytes, segBytes)
	buf, err := shmMap(ShmPath(dir, me), size, true)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(buf[0:], shmMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(n))
	binary.LittleEndian.PutUint64(buf[16:], uint64(ringBytes))
	binary.LittleEndian.PutUint64(buf[24:], uint64(segBytes))
	c := &ShmConduit{
		dir:       dir,
		me:        me,
		n:         n,
		ringBytes: ringBytes,
		segBytes:  segBytes,
		files:     make([][]byte, n),
		handlers:  make(map[uint16]func(int, uint64, []byte)),
		partial:   make([][]byte, n),
	}
	c.files[me] = buf
	return c, nil
}

// Attach maps every peer's shm file. All ranks must have Created theirs
// first (the launcher's rendezvous provides that ordering).
func (c *ShmConduit) Attach() error {
	size := shmFileSize(c.n, c.ringBytes, c.segBytes)
	for j := 0; j < c.n; j++ {
		if j == c.me {
			continue
		}
		buf, err := shmMap(ShmPath(c.dir, j), size, false)
		if err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(buf[0:]) != shmMagic ||
			binary.LittleEndian.Uint64(buf[8:]) != uint64(c.n) ||
			binary.LittleEndian.Uint64(buf[16:]) != uint64(c.ringBytes) ||
			binary.LittleEndian.Uint64(buf[24:]) != uint64(c.segBytes) {
			return fmt.Errorf("gasnet: shm file %s disagrees on geometry", ShmPath(c.dir, j))
		}
		c.files[j] = buf
	}
	return nil
}

func shmMap(path string, size int, create bool) ([]byte, error) {
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o600)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if create {
		if err := f.Truncate(int64(size)); err != nil {
			return nil, err
		}
	}
	buf, err := syscall.Mmap(int(f.Fd()), 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("gasnet: mmap %s: %w", path, err)
	}
	return buf, nil
}

// Locals returns the number of co-located ranks; Local returns this
// rank's index among them.
func (c *ShmConduit) Locals() int { return c.n }

// Local returns this rank's local index.
func (c *ShmConduit) Local() int { return c.me }

// Seg returns this rank's shared-segment window of its own mapped file;
// wrap it with segment.NewExtern so co-located peers' direct loads and
// stores land in the same physical pages the owner allocates from.
func (c *ShmConduit) Seg() []byte {
	off := shmHdrBytes + c.n*(shmCtlBytes+c.ringBytes)
	return c.files[c.me][off : off+c.segBytes : off+c.segBytes]
}

// PeerSeg returns the mapped shared-segment window of co-located rank
// j's file (valid after Attach). Direct loads/stores here are the
// shared-memory puts and gets of the hierarchical conduit.
func (c *ShmConduit) PeerSeg(j int) []byte {
	off := shmHdrBytes + c.n*(shmCtlBytes+c.ringBytes)
	return c.files[j][off : off+c.segBytes : off+c.segBytes]
}

// Register installs the handler for one shm AM id. Handlers run inside
// Poll on the consumer's goroutine and must not block.
func (c *ShmConduit) Register(h uint16, fn func(from int, arg uint64, payload []byte)) {
	c.handlers[h] = fn
}

// SetIdle installs the hook run while a producer spins on a full ring.
func (c *ShmConduit) SetIdle(fn func()) { c.idle = fn }

// SetDoorbell installs the wakeup a push rings when it finds its
// destination parked; fn(j) must make local rank j's blocked wait
// return (see park).
func (c *ShmConduit) SetDoorbell(fn func(j int)) { c.doorbell = fn }

// parkWord is local rank j's park word, in the header of j's own file.
func (c *ShmConduit) parkWord(j int) *uint64 {
	return (*uint64)(unsafe.Pointer(&c.files[j][shmParkOff]))
}

// park announces that this rank is about to block: the next push to
// any of its rings clears the word and rings the doorbell. The caller
// must re-check its rings (Poll) after park and before blocking, its
// blocked wait must end once parked turns false, and it must unpark
// after the wait.
func (c *ShmConduit) park() { atomic.StoreUint64(c.parkWord(c.me), 1) }

// parked reports whether this rank's park word is still set, i.e. no
// producer has rung the doorbell since park.
func (c *ShmConduit) parked() bool { return atomic.LoadUint64(c.parkWord(c.me)) != 0 }

// unpark clears this rank's park word after its wait returned.
func (c *ShmConduit) unpark() { atomic.StoreUint64(c.parkWord(c.me), 0) }

// ring is one SPSC channel's view: control words plus data window.
type shmRing struct {
	ctl  []byte
	data []byte
}

// ringTo returns the ring inside file `owner` written by local rank
// `producer`.
func (c *ShmConduit) ring(owner, producer int) shmRing {
	off := shmHdrBytes + producer*(shmCtlBytes+c.ringBytes)
	f := c.files[owner]
	return shmRing{
		ctl:  f[off : off+shmCtlBytes],
		data: f[off+shmCtlBytes : off+shmCtlBytes+c.ringBytes],
	}
}

func (r shmRing) head() *uint64 { return (*uint64)(unsafe.Pointer(&r.ctl[0])) }
func (r shmRing) tail() *uint64 { return (*uint64)(unsafe.Pointer(&r.ctl[64])) }

// copyIn writes src into the ring data window at logical position pos,
// wrapping as needed.
func ringCopyIn(data []byte, pos uint64, src []byte) {
	i := pos % uint64(len(data))
	k := copy(data[i:], src)
	if k < len(src) {
		copy(data, src[k:])
	}
}

// ringCopyOut reads len(dst) bytes at logical position pos.
func ringCopyOut(dst, data []byte, pos uint64) {
	i := pos % uint64(len(data))
	k := copy(dst, data[i:])
	if k < len(dst) {
		copy(dst[k:], data)
	}
}

// Send delivers one active message to co-located rank `to`, fragmenting
// payloads larger than a quarter ring. Blocks (polling own rings and
// running the idle hook) while the destination ring is full; because the
// consumer publishes head before dispatching each record, two ranks
// blocked sending to each other still drain.
func (c *ShmConduit) Send(to int, h uint16, arg uint64, payload []byte) {
	maxFrag := c.ringBytes / 4
	for {
		n := len(payload)
		more := n > maxFrag
		if more {
			n = maxFrag
		}
		c.push(to, h, arg, payload[:n], more)
		payload = payload[n:]
		if !more {
			return
		}
	}
}

func (c *ShmConduit) push(to int, h uint16, arg uint64, p []byte, more bool) {
	if to == c.me {
		panic("gasnet: shm self-send")
	}
	r := c.ring(to, c.me)
	rec := uint64(shmRecHdr + ((len(p) + shmAlignMask) &^ shmAlignMask))
	capacity := uint64(c.ringBytes)
	for capacity-(atomic.LoadUint64(r.tail())-atomic.LoadUint64(r.head())) < rec {
		// Full: the consumer is behind. Serve our own rings (it may be
		// blocked pushing to us) and the other plane, then yield.
		if c.Poll() == 0 {
			if c.idle != nil {
				c.idle()
			}
			runtime.Gosched()
		}
	}
	tail := atomic.LoadUint64(r.tail())
	var hdr [shmRecHdr]byte
	ln := uint32(len(p))
	if more {
		ln |= shmMoreFlag
	}
	binary.LittleEndian.PutUint32(hdr[0:], ln)
	binary.LittleEndian.PutUint16(hdr[4:], h)
	binary.LittleEndian.PutUint64(hdr[8:], arg)
	ringCopyIn(r.data, tail, hdr[:])
	ringCopyIn(r.data, tail+shmRecHdr, p)
	// The tail store publishes the record: it is sequentially consistent
	// (Go sync/atomic), so the consumer's tail load orders after our data
	// writes.
	atomic.StoreUint64(r.tail(), tail+rec)
	// Then load the peer's park word (see the type comment). The plain
	// load keeps the common unparked case free of a locked instruction;
	// the CAS lets exactly one of several producers ring for one park.
	if c.doorbell != nil {
		if w := c.parkWord(to); atomic.LoadUint64(w) != 0 && atomic.CompareAndSwapUint64(w, 1, 0) {
			c.doorbell(to)
		}
	}
	c.txMsgs.Add(1)
	c.txBytes.Add(int64(len(p)))
	c.obsRing.Instant(obs.KShmTx, int32(to), uint32(len(p)), uint64(h))
}

// Poll drains every incoming ring, dispatching complete messages, and
// reports how many records it consumed. Head is published before each
// dispatch so a handler that blocks in Send never wedges its producer.
func (c *ShmConduit) Poll() int {
	n := 0
	for j := 0; j < c.n; j++ {
		if j == c.me {
			continue
		}
		r := c.ring(c.me, j)
		for {
			head := atomic.LoadUint64(r.head())
			tail := atomic.LoadUint64(r.tail())
			if head == tail {
				break
			}
			var hdr [shmRecHdr]byte
			ringCopyOut(hdr[:], r.data, head)
			ln := binary.LittleEndian.Uint32(hdr[0:])
			more := ln&shmMoreFlag != 0
			plen := int(ln &^ uint32(shmMoreFlag))
			h := binary.LittleEndian.Uint16(hdr[4:])
			arg := binary.LittleEndian.Uint64(hdr[8:])
			payload := make([]byte, plen)
			ringCopyOut(payload, r.data, head+shmRecHdr)
			rec := uint64(shmRecHdr + ((plen + shmAlignMask) &^ shmAlignMask))
			atomic.StoreUint64(r.head(), head+rec)
			n++
			if more {
				c.partial[j] = append(c.partial[j], payload...)
				continue
			}
			if part := c.partial[j]; part != nil {
				payload = append(part, payload...)
				c.partial[j] = nil
			}
			c.rxMsgs.Add(1)
			c.rxBytes.Add(int64(len(payload)))
			c.obsRing.Instant(obs.KShmRx, int32(j), uint32(len(payload)), uint64(h))
			fn := c.handlers[h]
			if fn == nil {
				panic(fmt.Sprintf("gasnet: shm message for unregistered handler %d", h))
			}
			fn(j, arg, payload)
		}
	}
	return n
}

// SetObs installs the rank's span ring on the shm send/receive paths.
func (c *ShmConduit) SetObs(ring *obs.Ring) { c.obsRing = ring }

// Counters reports shm-plane traffic (complete messages, payload bytes).
func (c *ShmConduit) Counters() map[string]float64 {
	return map[string]float64{
		"shm_tx_msgs":  float64(c.txMsgs.Load()),
		"shm_rx_msgs":  float64(c.rxMsgs.Load()),
		"shm_tx_bytes": float64(c.txBytes.Load()),
		"shm_rx_bytes": float64(c.rxBytes.Load()),
	}
}

// Close unmaps every mapping. The launcher owns the directory (and
// removes it after the job); Close only releases this process's views.
func (c *ShmConduit) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var first error
	for j, buf := range c.files {
		if buf == nil {
			continue
		}
		c.files[j] = nil
		if err := syscall.Munmap(buf); err != nil && first == nil {
			first = err
		}
	}
	return first
}
