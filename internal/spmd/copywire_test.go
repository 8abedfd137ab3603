package spmd

import (
	"fmt"
	"testing"

	"upcxx/internal/core"
	"upcxx/internal/transport"
)

// Wire-backend coverage for the implicit-handle non-blocking copy path
// (WriteSliceAsync with a nil completion + AsyncCopyFence), previously
// exercised only in-process — including transfers straddling the
// transport's MaxPayload fragmentation boundary, where one logical put
// becomes several chunked frames.

// copyWireSegBytes sizes segments for the boundary transfers: the
// largest test slice plus allocator slack.
func copyWireSegBytes(elems int) int { return elems*8 + (1 << 18) }

// wirePutBoundarySizes are element counts whose byte sizes bracket the
// chunking threshold of the wire data plane (MaxPayload - 8 bytes of
// put-offset header): one chunk, exactly one chunk, several chunks.
func wirePutBoundarySizes() []int {
	maxChunkBytes := transport.MaxPayload - 8
	return []int{
		0,
		1,
		maxChunkBytes/8 - 1,
		maxChunkBytes / 8, // MaxPayload boundary: last single-frame put
		maxChunkBytes/8 + 1,
		2*maxChunkBytes/8 + 3,
	}
}

func TestWriteSliceAsyncFenceOnWire(t *testing.T) {
	sizes := wirePutBoundarySizes()
	maxElems := sizes[len(sizes)-1]
	fill := func(n int, salt uint64) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = mix(salt<<32 + uint64(i))
		}
		return s
	}
	_, err := RunWireLocal(2, copyWireSegBytes(maxElems), core.Config{}, func(me *core.Rank) {
		if me.ID() == 0 {
			for round, n := range sizes {
				dst := core.Allocate[uint64](me, 1, maxElems+1)
				want := fill(n, uint64(round+1))
				// Implicit-handle async puts: no event, no promise;
				// AsyncCopyFence is the only synchronization.
				core.WriteSliceAsync(me, dst, want, nil)
				core.AsyncCopyFence(me)
				got := make([]uint64, n)
				core.ReadSlice(me, dst, got)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("size %d: dst[%d] = %#x, want %#x", n, i, got[i], want[i])
						break
					}
				}
				if err := core.Deallocate(me, dst); err != nil {
					t.Errorf("size %d: %v", n, err)
				}
			}
		}
		me.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAsyncCopyEventOnWireAtBoundary(t *testing.T) {
	// AsyncCopy completing into an event, remote→local at the
	// fragmentation boundary, on the wire backend.
	maxChunkBytes := transport.MaxPayload - 8
	sizes := []int{maxChunkBytes / 8, maxChunkBytes/8 + 1}
	maxElems := sizes[len(sizes)-1]
	_, err := RunWireLocal(2, copyWireSegBytes(2*maxElems+2), core.Config{}, func(me *core.Rank) {
		src := core.Allocate[uint64](me, me.ID(), maxElems)
		vals := make([]uint64, maxElems)
		for i := range vals {
			vals[i] = mix(uint64(me.ID())<<40 + uint64(i))
		}
		core.WriteSlice(me, src, vals)
		dir := core.AllGather(me, src)
		me.Barrier()

		if me.ID() == 0 {
			for _, n := range sizes {
				dst := core.Allocate[uint64](me, 0, n)
				ev := core.NewEvent()
				core.AsyncCopy(me, dir[1], dst, n, ev)
				ev.Wait(me)
				got := core.LocalSlice(me, dst, n)
				for i := 0; i < n; i++ {
					want := mix(uint64(1)<<40 + uint64(i))
					if got[i] != want {
						t.Errorf("n=%d: dst[%d] = %#x, want %#x", n, i, got[i], want)
						break
					}
				}
				if err := core.Deallocate(me, dst); err != nil {
					t.Errorf("n=%d: %v", n, err)
				}
			}
		}
		me.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFutureOpsOnWireAtBoundary(t *testing.T) {
	// The futures-first slice ops (WriteSliceFuture / ReadSliceAsync)
	// across the chunking boundary on the wire's async data plane.
	maxChunkBytes := transport.MaxPayload - 8
	for _, n := range []int{maxChunkBytes / 8, maxChunkBytes/8 + 1} {
		n := n
		t.Run(fmt.Sprintf("elems=%d", n), func(t *testing.T) {
			_, err := RunWireLocal(2, copyWireSegBytes(n), core.Config{}, func(me *core.Rank) {
				if me.ID() == 0 {
					dst := core.Allocate[uint64](me, 1, n)
					want := make([]uint64, n)
					for i := range want {
						want[i] = mix(0xABC<<32 + uint64(i))
					}
					core.WriteSliceFuture(me, dst, want).Wait()
					got := core.ReadSliceAsync(me, dst, make([]uint64, n)).Get()
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("dst[%d] = %#x, want %#x", i, got[i], want[i])
							break
						}
					}
				}
				me.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCopyAsyncOwnSegmentEnds checks the data of copies with one end in
// the initiator's own segment — a local source pushed to every rank and
// a local destination pulled from every rank, the initiator included —
// on the flat wire (2 ranks) and on hier (4 ranks, 2 per host, so the
// peers are a shm neighbour and two wire ranks). Those copies move
// straight between the segment and the conduit; CopyAsync and
// AsyncCopy must both deliver every word.
func TestCopyAsyncOwnSegmentEnds(t *testing.T) {
	const n = 3000 // 24000 bytes: several pages, one wire chunk
	val := func(rank, round, i int) uint64 { return mix(uint64(rank)<<40 + uint64(round)<<32 + uint64(i)) }
	body := func(me *core.Rank) {
		ranks := me.Ranks()
		src := core.Allocate[uint64](me, me.ID(), n)
		in := core.Allocate[uint64](me, me.ID(), n*ranks)   // pushed to me, slot per sender
		pull := core.Allocate[uint64](me, me.ID(), n*ranks) // pulled by me, slot per source
		srcs := core.TeamAllGather(me.World(), src)
		ins := core.TeamAllGather(me.World(), in)
		for round, name := range []string{"CopyAsync", "AsyncCopy"} {
			vals := core.LocalSlice(me, src, n)
			for i := range vals {
				vals[i] = val(me.ID(), round, i)
			}
			me.Barrier()
			copyAll := func(from, to core.GlobalPtr[uint64]) {
				if round == 0 {
					core.CopyAsync(me, from, to, n).Wait()
					return
				}
				ev := core.NewEvent()
				core.AsyncCopy(me, from, to, n, ev)
				ev.Wait(me)
			}
			for p := 0; p < ranks; p++ {
				copyAll(src, ins[p].Add(me.ID()*n)) // local source
				copyAll(srcs[p], pull.Add(p*n))     // local destination
			}
			me.Barrier()
			got, pulled := core.LocalSlice(me, in, n*ranks), core.LocalSlice(me, pull, n*ranks)
			for p := 0; p < ranks; p++ {
				for i := 0; i < n; i++ {
					if want := val(p, round, i); got[p*n+i] != want || pulled[p*n+i] != want {
						t.Errorf("%s rank %d, peer %d word %d: pushed %#x, pulled %#x, want %#x",
							name, me.ID(), p, i, got[p*n+i], pulled[p*n+i], want)
						break
					}
				}
			}
			me.Barrier()
		}
	}
	segBytes := 8*n*(1+2*4) + 1<<16
	t.Run("wire", func(t *testing.T) {
		if _, err := RunWireLocal(2, segBytes, core.Config{}, body); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("hier", func(t *testing.T) {
		if _, err := RunHierLocal(4, 2, segBytes, core.Config{}, body); err != nil {
			t.Fatal(err)
		}
	})
}
