package main

import (
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// The hang watchdog. Workloads bump progress as they complete work; a
// run that makes no progress for stallLimit, or outlives its deadline,
// is reported as failed with every goroutine's stack saved, instead of
// stalling whoever runs the benchmark. The runtime has a known wire
// deadlock (README.md, "Known defect") that presents exactly this way.

var (
	progress  atomic.Int64
	runName   string
	fatalOnce sync.Once
)

const stallLimit = 30 * time.Second

func startWatchdog(dumpPath string, deadline time.Duration) {
	deadline = min(deadline, 170*time.Second)
	go func() {
		start := time.Now()
		last, lastAt := progress.Load(), start
		for range time.Tick(500 * time.Millisecond) {
			if cur := progress.Load(); cur != last {
				last, lastAt = cur, time.Now()
			}
			switch {
			case time.Since(lastAt) > stallLimit:
				hang(dumpPath, fmt.Sprintf("no progress for %v", stallLimit))
			case time.Since(start) > deadline:
				hang(dumpPath, fmt.Sprintf("run exceeded its %v deadline", deadline))
			}
		}
	}()
}

// hang saves a goroutine dump and fails the run.
func hang(dumpPath, why string) {
	if f, err := os.Create(dumpPath); err == nil {
		pprof.Lookup("goroutine").WriteTo(f, 2)
		f.Close()
		why += ", goroutine dump in " + dumpPath
	}
	fatal(fmt.Errorf("%s hung: %s", runName, why))
}

// fatal reports a run that cannot finish — a hang, a rank panic, a job
// that failed to assemble — as one failed result line and exits
// non-zero. Rank goroutines blocked in a collective cannot be unwound,
// so the process exit is what stops them.
func fatal(err error) {
	fatalOnce.Do(func() {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		fmt.Println(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		os.Exit(1)
	})
	select {} // another goroutine is exiting the process
}
