package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"upcxx/internal/core"
	"upcxx/internal/gasnet"
	"upcxx/internal/segment"
	"upcxx/internal/transport"
)

// Job assembly from the layers' public pieces, the way gatebench and
// spmd do it: one transport endpoint, segment and conduit per rank,
// ranks as goroutines of this process. A flat job is a wire mesh over
// loopback TCP; a hier job packs ppn ranks per virtual host, with
// co-located ranks sharing mmap'd segment files and shm rings under a
// HierConduit. The traced run places the decorators over the conduit
// and the segment memory here; an untraced run passes the raw objects.

// meshSpec describes one job.
type meshSpec struct {
	ranks    int
	ppn      int // ranks per virtual host; 0 = flat wire mesh
	segBytes int
	shmDir   string // hier only: where the segment files live
	cfg      core.Config
	tr       *tracer // nil = untraced
	// prep runs on each rank's goroutine once its segment exists and
	// before the runtime starts (allocations the body relies on).
	prep func(rank int, seg *segment.Segment)
}

// rankEnv is what a rank body sees besides its *core.Rank.
type rankEnv struct {
	seg *segment.Segment
	tk  *track         // nil when untraced
	mem *tracedMemory  // nil when untraced
	cd  gasnet.Conduit // what the runtime was given: raw, or decorated
	raw gasnet.Conduit
}

// meshRun reports one finished job.
type meshRun struct {
	start    time.Time     // assembly began (before the first listen)
	meshDone time.Duration // every rank connected, since start
	stats    []core.Stats
	segs     []*segment.Segment
	maps     [][]byte // flat jobs: the segments' anonymous mappings
}

// release unmaps a flat job's segments; segs must not be used after.
func (m *meshRun) release() {
	for i, b := range m.maps {
		if b != nil {
			syscall.Munmap(b)
			m.maps[i] = nil
		}
	}
}

// runMesh assembles the job, runs body on every rank and tears the job
// down. A panic on any rank is returned as an error, since its peers may
// never leave their next collective; the caller treats it as fatal.
func runMesh(spec meshSpec, body func(me *core.Rank, env *rankEnv)) (*meshRun, error) {
	run := &meshRun{start: time.Now(), stats: make([]core.Stats, spec.ranks),
		segs: make([]*segment.Segment, spec.ranks), maps: make([][]byte, spec.ranks)}
	n := spec.ranks
	var nodes []int
	if spec.ppn > 0 {
		nodes = make([]int, n)
		for r := range nodes {
			nodes[r] = r / spec.ppn
		}
	}
	eps := make([]*transport.TCPEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		ep, err := transport.ListenTCP(i, n, "127.0.0.1:0")
		if err != nil {
			for _, e := range eps[:i] {
				e.Close()
			}
			return nil, fmt.Errorf("listen rank %d: %w", i, err)
		}
		eps[i], addrs[i] = ep, ep.Addr()
	}
	// Hier: every co-located segment file exists before anyone
	// attaches (the ordering the launcher's rendezvous provides).
	shms := make([]*gasnet.ShmConduit, n)
	if nodes != nil {
		for i := range shms {
			node := nodes[i]
			locals := min(spec.ppn, n-node*spec.ppn)
			dir := filepath.Join(spec.shmDir, fmt.Sprintf("node%d", node))
			if err := os.MkdirAll(dir, 0o777); err != nil {
				return nil, err
			}
			shm, err := gasnet.CreateShm(dir, i-node*spec.ppn, locals, gasnet.DefaultShmRingBytes, spec.segBytes)
			if err != nil {
				return nil, fmt.Errorf("shm rank %d: %w", i, err)
			}
			shms[i] = shm
		}
	}

	connected := make([]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("rank %d: %v", i, p)
					fatal(errs[i])
				}
			}()
			errs[i] = runRank(spec, i, eps[i], addrs, shms[i], nodes, connected, run, body)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, d := range connected {
		run.meshDone = max(run.meshDone, d)
	}
	return run, nil
}

func runRank(spec meshSpec, i int, ep *transport.TCPEndpoint, addrs []string, shm *gasnet.ShmConduit,
	nodes []int, connected []time.Duration, run *meshRun, body func(*core.Rank, *rankEnv)) error {
	if err := ep.Connect(addrs); err != nil {
		ep.Close()
		return fmt.Errorf("rank %d connect: %w", i, err)
	}
	var seg *segment.Segment
	if shm != nil {
		if err := shm.Attach(); err != nil {
			ep.Close()
			shm.Close()
			return fmt.Errorf("rank %d attach: %w", i, err)
		}
		seg = segment.NewExtern(shm.Seg())
	} else {
		// An anonymous mapping, off the Go heap like the hier segments,
		// so a large table neither paces the collector nor leaves its
		// pages to it: peak RSS is the table plus the runtime's own.
		// Huge pages where the kernel grants them: with 4 KiB pages a
		// random update also misses the TLB, and run-to-run placement
		// of those misses made the gups rate swing by a third.
		buf, err := syscall.Mmap(-1, 0, spec.segBytes, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			ep.Close()
			return fmt.Errorf("rank %d segment: %w", i, err)
		}
		const madvHugepage = 14
		_ = syscall.Madvise(buf, madvHugepage) // advisory: 4 KiB pages still work
		run.maps[i] = buf
		seg = segment.NewExtern(buf)
	}
	connected[i] = time.Since(run.start)
	run.segs[i] = seg
	if spec.prep != nil {
		spec.prep(i, seg)
	}
	env := &rankEnv{seg: seg}
	var mem gasnet.Memory = seg
	if spec.tr != nil {
		env.tk = spec.tr.newTrack(i, fmt.Sprintf("rank %d", i))
		env.mem = &tracedMemory{in: seg, tk: env.tk}
		mem = env.mem
	}
	wire := gasnet.NewWireConduit(ep, mem)
	var raw gasnet.Conduit = wire
	goodbye := wire.Goodbye
	if shm != nil {
		h := gasnet.NewHierConduit(wire, shm, nodes)
		raw, goodbye = h, h.Goodbye
	}
	defer raw.Close()
	env.cd, env.raw = raw, raw
	if env.tk != nil {
		env.cd = newTracedConduit(raw, env.tk, nodes)
	}
	run.stats[i] = core.RunWire(spec.cfg, env.cd, seg, func(me *core.Rank) { body(me, env) })
	goodbye()
	return nil
}

// counterSum folds one counter over every rank's job statistics.
func (m *meshRun) counterSum(name string) float64 {
	var s float64
	for _, st := range m.stats {
		s += st.Counters[name]
	}
	return s
}
