package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// lateAfter is how far past its due time an op may be sent before it counts
// in late_share; pacedGrace is how long past a window's end a client that
// fell behind keeps sending before the rest of its queue counts as failed.
const (
	lateAfter  = int64(time.Millisecond)
	pacedGrace = int64(2 * time.Second)
)

// runClosed is the saturated phase: the client's next batch goes out as soon
// as the previous one is verified, until stop is set.
func runClosed(c client, g *opGen, pipeline int, stop *atomic.Bool, t *tally) {
	ops := make([]op, pipeline)
	for !stop.Load() && !t.broken {
		for i := range ops {
			g.next(&ops[i])
		}
		c.exchange(ops, t, false)
		t.ops += int64(len(ops))
	}
}

// runSolo is the solo phase: one client with one op in flight, the next sent as
// soon as the previous one is verified. Nothing else runs, so every op finds
// the system idle and pays for whatever it has to wake: this is the latency a
// lone synchronous caller sees.
func runSolo(c client, g *opGen, end int64, t *tally) {
	ops := make([]op, 1)
	for !t.broken {
		sent := now()
		if sent >= end {
			return
		}
		g.next(&ops[0])
		c.exchange(ops, t, true)
		t.ops++
		t.sample(&ops[0], sent)
	}
}

// clock is the pacer's view of time; the pacing test substitutes one that can
// stall.
type clock interface {
	now() int64
	yield()
}

type realClock struct{}

func (realClock) now() int64 { return now() }
func (realClock) yield()     { runtime.Gosched() }

// runPaced is the open-loop phase for one client: op k is due at first +
// k*interval whatever the system is doing, and its latency runs from that due
// time, so a stall is charged to every op that was due during it. Ops that
// are due together go out as one batch of at most pipeline.
func runPaced(clk clock, c client, g *opGen, pipeline int, first int64, interval float64, end int64, t *tally) {
	ops := make([]op, pipeline)
	dueAt := func(k int64) int64 { return first + int64(float64(k)*interval) }
	k := int64(0)
	for dueAt(k) < end {
		nw := clk.now()
		for nw < dueAt(k) {
			clk.yield()
			nw = clk.now()
		}
		if t.broken || nw > end+pacedGrace {
			for ; dueAt(k) < end; k++ {
				t.ops++
				t.failed++
				t.lat = append(t.lat, failedLatency)
			}
			return
		}
		n := 0
		for ; n < pipeline && dueAt(k) < end && dueAt(k) <= nw; k++ {
			g.next(&ops[n])
			ops[n].due = dueAt(k)
			if nw-ops[n].due > lateAfter {
				t.late++
			}
			n++
		}
		c.exchange(ops[:n], t, true)
		t.ops += int64(n)
		for i := range ops[:n] {
			t.sample(&ops[i], ops[i].due)
		}
	}
}

// window is one measured interval's outcome over all its clients; lat is
// sorted.
type window struct {
	tally
	seconds float64
}

func (w *window) opsPerSec() float64 { return ratio(float64(w.ops-w.failed), w.seconds) }

// total adds up the windows' counts.
func total(wins ...window) tally {
	var all tally
	for i := range wins {
		all.add(&wins[i].tally)
	}
	return all
}

// satWindow runs every client closed-loop for d.
func satWindow(sys *system, w *workload, seed int64, phase, index int, d time.Duration) window {
	var stop atomic.Bool
	tallies := make([]tally, len(sys.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for g, c := range sys.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runClosed(c, newOpGen(w, streamSeed(seed, phase, index, g)), w.pipeline, &stop, &tallies[g])
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	win := window{seconds: time.Since(start).Seconds()}
	for i := range tallies {
		win.add(&tallies[i])
	}
	return win
}

// soloWindow runs one client's solo loop for d.
func soloWindow(c client, w *workload, seed int64, index int, d time.Duration) window {
	t := tally{lat: make([]int64, 0, 1<<19)}
	runSolo(c, newOpGen(w, streamSeed(seed, streamSolo, index, 0)), now()+int64(d), &t)
	sort.Slice(t.lat, func(i, j int) bool { return t.lat[i] < t.lat[j] })
	return window{tally: t, seconds: d.Seconds()}
}

// pacedWindow offers w.pacedRate ops/s for d through one client. The paced
// phase has a single generator goroutine because it waits by yielding, not by
// sleeping: ops are due every 7 to 33 us, and a sleeping goroutine in an
// otherwise idle Go process is woken on a 1 ms grid. One yielding goroutine
// leaves the other processors free to run out of work and poll the network;
// two of them keep the run queue non-empty for good, and the netpoller then
// only runs from sysmon, every 10 ms.
func pacedWindow(c client, w *workload, seed int64, index int, d time.Duration) window {
	t := tally{lat: make([]int64, 0, int(d.Seconds()*w.pacedRate)+1)}
	begin := now() + int64(time.Millisecond)
	runPaced(realClock{}, c, newOpGen(w, streamSeed(seed, streamPaced, index, 0)), w.pipeline, begin, 1e9/w.pacedRate, begin+int64(d), &t)
	sort.Slice(t.lat, func(i, j int) bool { return t.lat[i] < t.lat[j] })
	return window{tally: t, seconds: d.Seconds()}
}

// awaitGoroutines waits for the goroutine count to come back to baseline after
// a teardown and reports how many are left over.
func awaitGoroutines(baseline int) int {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-baseline, 0)
}
