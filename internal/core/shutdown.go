package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"dps/internal/obs"
)

// ShutdownReport summarizes what Shutdown accomplished before returning.
type ShutdownReport struct {
	// Drained counts delegated requests the shutdown sweep executed on
	// behalf of localities that were no longer serving them.
	Drained int
	// Abandoned counts requests still pending in rings when Shutdown gave
	// up at its deadline (0 on a clean shutdown). It is read without
	// claiming the rings, so with wedged threads still mutating state it is
	// a racy gauge.
	Abandoned int
	// LiveThreads counts threads still registered when Shutdown returned
	// (0 on a clean shutdown).
	LiveThreads int
}

// Shutdown gracefully stops the runtime within timeout. It immediately
// quiesces registration (new Register calls fail with ErrClosed), then
// sweeps every partition's rings — executing pending delegated requests so
// blocked senders unwind — until the rings are empty and every thread has
// unregistered, or the deadline expires. Either way Shutdown marks the
// runtime down before returning: from then on new operations panic with
// ErrClosed and still-blocked waits resolve with a Result carrying
// ErrClosed.
//
// On a clean quiesce the error is nil. At the deadline the error is
// ErrTimeout and the report says what was left behind: requests still in
// rings and threads still registered. A delegated operation that blocks
// forever cannot be cancelled — its serving goroutine is abandoned (it
// leaks, by design) so Shutdown itself always returns. Calling Shutdown on
// a runtime that is already closed or shut down returns ErrClosed.
func (rt *Runtime) Shutdown(timeout time.Duration) (ShutdownReport, error) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return ShutdownReport{}, ErrClosed
	}
	rt.closed = true
	rt.mu.Unlock()

	deadline := time.Now().Add(timeout)
	var drained atomic.Int64
	done := make(chan bool, 1) // the sweep's one verdict: quiescent or not
	go rt.shutdownSweep(deadline, &drained, done)

	// A sweep that gave up at the deadline reports so itself: its exit and
	// the timer below fire together, and which one the select sees is
	// arbitrary.
	timedOut := false
	select {
	case quiescent := <-done:
		timedOut = !quiescent
	case <-time.After(time.Until(deadline)):
		timedOut = true
	}
	rt.stop()

	rt.mu.Lock()
	nlive := rt.nlive
	rt.mu.Unlock()
	rep := ShutdownReport{
		Drained:     int(drained.Load()),
		Abandoned:   rt.occupancy(),
		LiveThreads: nlive,
	}
	if timedOut {
		return rep, ErrTimeout
	}
	return rep, nil
}

// Close is Shutdown for a runtime with no registered threads: there is
// nothing to sweep, so it runs only the tail — the down mark and the severed
// peer links. It fails while threads are registered, because live threads
// may still be serving partitions, and with ErrClosed on a runtime already
// closed or shut down.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrClosed
	}
	if rt.nlive > 0 {
		return fmt.Errorf("dps: cannot close runtime with %d registered threads", rt.nlive)
	}
	rt.closed = true
	rt.stop()
	return nil
}

// stop is the tail both Close and Shutdown end in. It marks the runtime down,
// then releases every parked waiter, which unwinds through its shutdown check
// instead of riding out a park timeout. Last it severs the peer links, so
// senders blocked on wire completions resolve with ErrClosed at once and a
// hung peer cannot hold Shutdown past its budget; the links' reader and
// heartbeat goroutines exit with them.
func (rt *Runtime) stop() {
	rt.down.Store(true)
	rt.parker.WakeAll()
	for _, wp := range rt.peers {
		wp.Close()
	}
}

// shutdownSweep repeatedly drains every partition's rings with the rescue
// machinery until the runtime is quiescent (no pending requests, no
// registered threads) or the deadline passes. It runs on its own goroutine
// so a delegated operation that never returns wedges the sweep, not
// Shutdown.
//
//dps:domain=sweeper
func (rt *Runtime) shutdownSweep(deadline time.Time, drained *atomic.Int64, done chan<- bool) {
	quiescent := false
	defer func() { done <- quiescent }()
	// The sweep executes operations without holding a registered thread
	// id: it uses the recorder row reserved past MaxThreads for metric
	// attribution and its own quiescence-domain registration for SMR.
	admin := &Thread{rt: rt, id: rt.cfg.MaxThreads, smr: rt.smr.Register()}
	defer admin.smr.Unregister()
	idle := 0
	for time.Now().Before(deadline) {
		n := 0
		for _, p := range rt.parts {
			if p.peer != nil {
				// Peer-owned: no local rings to drain, and nothing this
				// process could execute on the peer's behalf.
				continue
			}
			// Whatever the sweep can claim of the partition's rings, all of
			// it per claim; rings claimed by live servers (or by an injected
			// claim fault) are retried on the next pass. The drained ring's
			// sender may be parked awaiting these very completions, and the
			// runtime is not marked down until the sweep finishes, so only
			// drain's direct wake (or a park timeout) unblocks it.
			for i := range p.rings {
				d, _ := admin.drain(p, i, false, rt.wholeRing(), obs.Served)
				n += d
			}
		}
		if n > 0 {
			drained.Add(int64(n))
			idle = 0
			continue
		}
		rt.mu.Lock()
		nlive := rt.nlive
		rt.mu.Unlock()
		if nlive == 0 && rt.occupancy() == 0 {
			quiescent = true
			return
		}
		// Nothing to drain but not quiescent yet: threads are still
		// registered or mid-publish. Spin briefly, then poll gently.
		if idle++; idle <= waitSpinYield {
			runtime.Gosched()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// occupancy counts requests pending across every partition's rings — the
// racy whole-runtime version of the per-partition metric gauge.
func (rt *Runtime) occupancy() int {
	n := 0
	for _, p := range rt.parts {
		n += p.ringOccupancy()
	}
	return n
}
