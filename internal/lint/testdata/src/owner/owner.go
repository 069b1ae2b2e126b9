// Package owner seeds violations for dpslint's owner rule: a field
// marked //dps:owned-by=<domain> may be plainly accessed only from
// functions in that domain, declared via //dps:domain or inferred
// through the call graph; other access must use sync/atomic or carry a
// //dps:owner-ok justification.
package owner

import "sync/atomic"

// q is a toy SPSC queue with one cursor per protocol domain.
type q struct {
	// head is the consumer's cursor: read and written only while the
	// consumer drains.
	//
	//dps:owned-by=consumer
	head int

	// tail is the producer's cursor.
	//
	//dps:owned-by=producer
	tail int

	n atomic.Int64
}

// push appends; it runs on the producing goroutine.
//
//dps:domain=producer
func (s *q) push() {
	s.tail++ // clean: the producer touches its own cursor
	s.n.Add(1)
	s.head++ // want owner "field head is owned by domain"
}

// pop drains; it runs on the consuming goroutine.
//
//dps:domain=consumer
func (s *q) pop() {
	s.head++ // clean: the consumer touches its own cursor
	s.n.Add(-1)
	s.reapTail()
}

// reapTail has no declared domain: it inherits consumer by reachability
// from pop, which is the wrong side for the producer's cursor.
func (s *q) reapTail() {
	s.tail = 0 // want owner "but q.reapTail runs in domain"
}

// size is called from nowhere annotated, so no domain reaches it.
func (s *q) size() int {
	return s.tail // want owner "q.size has no ownership domain"
}

// snapshot reads the producer cursor from the consumer side on purpose,
// with the justification the rule demands.
//
//dps:domain=consumer
func (s *q) snapshot() int {
	//dps:owner-ok startup-only diagnostics read; no producer exists yet
	return s.tail
}

// both is reachable from producer and consumer roots, so a single-owner
// field cannot be touched here even though one of the domains matches.
func (s *q) both() {
	s.tail++ // want owner "reachable from domains consumer, producer"
}

//dps:domain=producer
func produceVia(s *q) { s.both() }

//dps:domain=consumer
func consumeVia(s *q) { s.both() }

// spawn hands the queue to a fresh goroutine: the goroutine is a domain
// boundary and inherits nothing from its spawner.
//
//dps:domain=producer
func spawn(s *q) {
	go func() {
		s.tail++ // want owner "a goroutine launched by spawn has no ownership domain"
	}()
}

// tidy is clean, so its suppression suppresses nothing — which is itself
// a diagnostic (the stale check is what makes deleting an annotation out
// from under its suppressions fail the lint).
//
//dps:domain=producer
func tidy(s *q) {
	// want(+1) owner "stale //dps:owner-ok"
	//dps:owner-ok nothing here actually violates the rule
	s.tail++
}

// terse suppresses a real violation but gives no reason.
//
//dps:domain=consumer
func terse(s *q) {
	//dps:owner-ok
	s.tail = 1 // want(-1) owner "needs a justification"
}
