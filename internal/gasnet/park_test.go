package gasnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Test-only shm handler ids, above the hierarchical conduit's own.
const (
	shmTestA uint16 = 100
	shmTestB uint16 = 101
)

// awaitParked spins until local rank h is parked in its blocking wait
// (or d passes) and reports whether it saw the park.
func awaitParked(h *HierConduit, d time.Duration) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		if h.shm.parked() {
			return true
		}
		time.Sleep(50 * time.Microsecond)
	}
	return false
}

// TestHierParkLostWake pins the interleaving that loses a wake: a
// producer's record clears the parked waiter's word and rings, but that
// record does not satisfy the waiter's predicate. The waiter must not
// go on blocking with its word clear — then the next record's push
// finds nothing to ring — so a second record, pushed after the first
// was consumed, must still wake it.
func TestHierParkLostWake(t *testing.T) {
	cds := buildHierFleet(t, 2, 2, minShmRingBytes, 1<<12)
	waiter, producer := cds[0].(*HierConduit), cds[1].(*HierConduit)
	var gotA, gotB atomic.Bool
	waiter.shm.Register(shmTestA, func(int, uint64, []byte) { gotA.Store(true) })
	waiter.shm.Register(shmTestB, func(int, uint64, []byte) { gotB.Store(true) })

	done := make(chan error, 1)
	go func() { done <- waiter.WaitFor(gotB.Load) }()

	if !awaitParked(waiter, 5*time.Second) {
		t.Fatal("waiter never parked")
	}
	producer.shm.Send(0, shmTestA, 0, nil) // clears the word; does not satisfy the waiter
	// A correct waiter consumes A and parks again. A waiter that lost
	// the wake stays blocked with its word clear; give it time to show.
	reparked := awaitParked(waiter, 2*time.Second)
	if !gotA.Load() && reparked {
		t.Fatal("waiter re-parked without consuming the record that woke it")
	}
	producer.shm.Send(0, shmTestB, 0, nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitFor: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("waiter missed the second record's doorbell (re-parked after the first: %v)", reparked)
	}
	if !gotA.Load() {
		t.Fatal("first record never dispatched")
	}
}

// TestHierShmPingPongParks runs a long token ring over the shm plane
// among co-located ranks that park between messages: at ppn 2 of 4
// ranks (an off-host peer in the job, so every idle wait parks at once)
// and at ppn 4 (one host, where a wait spins first; senders pause now
// and then so the receivers run out of spin and park). Every token must
// arrive, in order, at the rank it was sent to.
func TestHierShmPingPongParks(t *testing.T) {
	for _, ppn := range []int{2, 4} {
		t.Run(fmt.Sprintf("ppn%d", ppn), func(t *testing.T) {
			const n, rounds = 4, 2000
			cds := buildHierFleet(t, n, ppn, minShmRingBytes, 1<<12)
			var wg sync.WaitGroup
			errs := make(chan error, n)
			for r := 0; r < n; r++ {
				h := cds[r].(*HierConduit)
				var last, got atomic.Uint64 // written by the rank's own handler only
				h.shm.Register(shmTestA, func(_ int, tok uint64, _ []byte) {
					if tok != last.Load()+1 {
						errs <- fmt.Errorf("rank %d: token %d after %d", h.me, tok, last.Load())
					}
					last.Store(tok)
					got.Add(1)
				})
				wg.Add(1)
				go func() {
					defer wg.Done()
					me, next := h.shm.Local(), (h.shm.Local()+1)%ppn
					for k := 1; k <= rounds; k++ {
						// The ring's first rank sends token k first; every
						// other rank forwards it once it has arrived.
						if me != 0 {
							if err := h.WaitFor(func() bool { return got.Load() >= uint64(k) }); err != nil {
								errs <- err
								return
							}
						}
						if k%16 == 0 {
							time.Sleep(200 * time.Microsecond)
						}
						h.shm.Send(next, shmTestA, uint64(k), nil)
						if me == 0 {
							if err := h.WaitFor(func() bool { return got.Load() >= uint64(k) }); err != nil {
								errs <- err
								return
							}
						}
					}
				}()
			}
			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(60 * time.Second):
				t.Fatal("shm token ring stalled: a parked rank missed its doorbell")
			}
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
