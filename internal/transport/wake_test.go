package transport

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestWakeUnblocksWaitFor is the contract the service plane builds on:
// a non-transport goroutine flips shared state, calls Wake, and a
// WaitFor blocked on that state observes it promptly — without any
// message traffic and without a tick installed.
func TestWakeUnblocksWaitFor(t *testing.T) {
	eps := mesh(t, 2)
	var flag atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- eps[0].WaitFor(flag.Load)
	}()
	// Let the waiter park, then wake it from a foreign goroutine.
	time.Sleep(20 * time.Millisecond)
	flag.Store(true)
	eps[0].Wake()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitFor: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFor did not observe the flag after Wake")
	}
}

// TestWakeIsDroppedWhenIdle pins the no-op half of the contract: wakes
// issued while nobody waits must not be misrouted to a handler, leak a
// frame, or count as a drop against the unknown-handler accounting.
func TestWakeIsDroppedWhenIdle(t *testing.T) {
	eps := mesh(t, 2)
	for i := 0; i < 2000; i++ {
		eps[0].Wake() // beyond inbox capacity: the overflow path must not block
	}
	if n := eps[0].Poll(); n == 0 {
		t.Fatal("Poll dispatched no queued wakes")
	}
	if d := eps[0].Dropped(); d != 0 {
		t.Fatalf("wake frames counted as handler drops: %d", d)
	}
	// The endpoint must still carry real traffic afterwards.
	got := make(chan uint64, 1)
	eps[1].Register(7, func(_ *TCPEndpoint, m Message) { got <- m.Arg })
	if err := eps[0].Send(Message{From: 0, To: 1, Handler: 7, Arg: 42}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		eps[0].Poll()
		eps[1].Poll()
		select {
		case v := <-got:
			if v != 42 {
				t.Fatalf("arg = %d, want 42", v)
			}
			return
		case <-deadline:
			t.Fatal("message after wake storm never arrived")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWakePeerUnblocksPeerWaitFor is the doorbell contract: a rank
// flips state its peer waits on outside the transport (a shared-memory
// ring, here a flag) and calls WakePeer, and the peer's blocked WaitFor
// re-evaluates its predicate — through a wake frame on the connection,
// and through the inbox directly when the peer endpoint lives in this
// process.
func TestWakePeerUnblocksPeerWaitFor(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame bool
	}{{"frame", true}, {"in-process", false}} {
		t.Run(tc.name, func(t *testing.T) {
			eps := mesh(t, 2)
			if eps[0].near[1] == nil {
				t.Fatal("peer endpoint of this process not found by Connect")
			}
			if tc.frame {
				eps[0].near[1] = nil // take the wire path, as for a peer process
			}
			var flag atomic.Bool
			done := make(chan error, 1)
			go func() { done <- eps[1].WaitFor(flag.Load) }()
			time.Sleep(20 * time.Millisecond)
			flag.Store(true)
			if err := eps[0].WakePeer(1); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("WaitFor: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("peer WaitFor did not observe the flag after WakePeer")
			}
			if d := eps[1].Dropped(); d != 0 {
				t.Fatalf("wake frame counted as a handler drop: %d", d)
			}
		})
	}
}
