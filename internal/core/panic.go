package core

import "log"

// Panic routing. A delegated operation that panics on a serving peer must
// not take that peer down: the peer is executing someone else's code as a
// courtesy of the §4.3 protocol. Panics with a live awaiter re-raise on
// the awaiting thread (the thread that issued the faulty operation);
// orphaned panics — fire-and-forget requests, and synchronous requests
// abandoned after a timeout — go to Config.OnPanic. Every delivery runs
// after the slot that carried the operation is released, so fail-stop is
// an OnPanic that panics: it takes down the thread it runs on, and no
// sender is left waiting on the slot.

// PanicInfo describes one recovered delegated-op panic for Config.OnPanic.
type PanicInfo struct {
	// Value is the recovered panic value.
	Value any
	// ThreadID is the serving thread the panic was recovered on.
	ThreadID int
	// Partition is the partition the operation targeted.
	Partition int
	// Key is the operation's key.
	Key uint64
	// Async is true for fire-and-forget operations, false for synchronous
	// operations whose completion was abandoned after a timeout.
	Async bool
}

// deliverPanic hands one orphaned panic to Config.OnPanic, or logs it. The
// Panics counter is bumped where the panic is recovered, not here, so a
// panic is counted exactly once however it is routed.
func (rt *Runtime) deliverPanic(info PanicInfo) {
	if rt.cfg.OnPanic != nil {
		rt.cfg.OnPanic(info)
		return
	}
	log.Printf("dps: recovered panic in delegated operation (thread %d, partition %d, key %d, async %t): %v",
		info.ThreadID, info.Partition, info.Key, info.Async, info.Value)
}
