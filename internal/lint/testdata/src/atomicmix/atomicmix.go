// Package atomicmix seeds the leftover marker of the deleted atomicmix rule:
// go vet's copylocks and the atomic types catch its defects now, and a
// //dps:check atomicmix left behind is an unknown-marker diagnostic rather
// than a silent opt-out.
package atomicmix

import "sync/atomic"

// want(+1) marker "unknown marker //dps:check"
//dps:check atomicmix

type counter struct {
	n atomic.Uint64
}

func (c *counter) inc() { c.n.Add(1) }
