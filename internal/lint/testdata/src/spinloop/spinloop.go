// Package spinloop seeds the leftover markers of the deleted spinloop rule:
// a //dps:check spinloop, //dps:bounded-wait or //dps:spin-ok left behind
// is an unknown-marker diagnostic rather than a silent opt-out.
package spinloop

import "sync/atomic"

// want(+1) marker "unknown marker //dps:check"
//dps:check spinloop

// wait polled under spinloop.
//
// want(+2) marker "unknown marker //dps:bounded-wait"
//
//dps:bounded-wait
func wait(toggle *atomic.Uint32) {
	// want(+1) marker "unknown marker //dps:spin-ok"
	//dps:spin-ok the test drives the other side
	for toggle.Load() == 0 {
	}
}
