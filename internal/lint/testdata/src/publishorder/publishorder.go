// Package publishorder seeds violations for dpslint's publishorder rule:
// in a //dps:publish function, the atomic store to a //dps:publishes
// field must be the last write touching payload on every path.
package publishorder

import "sync/atomic"

// cell is a toy published slot: payload fields made visible by the
// atomic ready store.
type cell struct {
	val  uint64
	more uint64

	// ready flips 0->1 when the payload may be read.
	//
	//dps:publishes
	ready atomic.Uint32
}

// good writes everything, then publishes. Calls after the publish are
// fine; plain writes are not.
//
//dps:publish
func good(c *cell) {
	c.val = 1
	c.more = 2
	c.ready.Store(1)
	notify()
}

// bad lets a payload write slip past the publish.
//
//dps:publish
func bad(c *cell) {
	c.val = 1
	c.ready.Store(1)
	c.more = 2 // want publishorder "payload write after the publish store"
}

// badBranch publishes on only one path; the write after the merge may
// still race with a consumer.
//
//dps:publish
func badBranch(c *cell, fast bool) {
	c.val = 1
	if fast {
		c.ready.Store(1)
	}
	c.more = 2 // want publishorder "payload write may follow the publish store"
}

// viaHelper publishes through a callee; the call site is the event.
//
//dps:publish
func viaHelper(c *cell) {
	c.val = 1
	mark(c)
	c.more = 2 // want publishorder "payload write after the publish store"
}

// mark performs the publishing store, so calls to it are publish events.
func mark(c *cell) { c.ready.Store(1) }

// reclaimed writes after the publish legitimately: the await loop got
// the cell handed back, and says so.
//
//dps:publish
func reclaimed(c *cell) {
	c.val = 1
	c.ready.Store(1)
	for c.ready.Load() != 0 {
	}
	//dps:publish-ok the await loop observed ready clear; the cell is ours again
	c.val = 0
}

// loop publishes one cell per iteration: the publish scopes to the
// iteration, so the next iteration's payload writes are clean.
//
//dps:publish
func loop(cs []cell) {
	for i := range cs {
		cs[i].val = 1
		cs[i].ready.Store(1)
	}
}

// badLoop reorders within one iteration, which is never fine.
//
//dps:publish
func badLoop(cs []cell) {
	for i := range cs {
		cs[i].ready.Store(1)
		cs[i].val = 1 // want publishorder "payload write after the publish store"
	}
}

// locals stay writable after the publish: they are private to this
// goroutine.
//
//dps:publish
func locals(c *cell) (n int) {
	c.val = 1
	c.ready.Store(1)
	n = 3
	n++
	return n
}

// idle claims to publish but never does.
//
//dps:publish
func idle(c *cell) { // want publishorder "marked //dps:publish but never publishes"
	c.val = 1
}

// pending mirrors wire.Pending: resolve fills a burst's results, and the
// state store hands them to the waiter.
type pending struct {
	res [4]uint64
	n   int

	//dps:publishes
	state atomic.Uint32
}

// resolveHoisted is the mutation audit's wire.Pending.resolve mutant, the
// state store hoisted above the result writes, so the waiter can read
// results not yet written. A single go test -race run of internal/wire and
// the core and mcd suites pass; make chaos-peer's three race runs caught it
// in 5 of 5 audit runs.
//
//dps:publish
func resolveHoisted(p *pending, vals []uint64) {
	p.state.Store(1)
	for i := 0; i < p.n; i++ {
		p.res[i] = vals[i] // want publishorder "payload write after the publish store"
	}
}

// failHoisted is the wire.Pending.fail mutant: the waiter can see the
// burst resolved while its error results are still unwritten, and take a
// zero Result for success. make chaos-peer caught it in 1 of 5 audit runs;
// this rule is the one guard that reports it every time.
//
//dps:publish
func failHoisted(p *pending) {
	p.state.Store(1)
	for i := range p.res[:p.n] {
		p.res[i] = 0 // want publishorder "payload write after the publish store"
	}
}

func notify() {}
