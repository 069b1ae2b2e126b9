// Package padcheck seeds the leftover marker of the deleted padcheck rule:
// the compile-time Sizeof asserts catch a dropped pad now, and a
// //dps:cacheline left behind is an unknown-marker diagnostic rather than a
// silent opt-out.
package padcheck

import "sync/atomic"

// slot was padded under padcheck.
//
// want(+2) marker "unknown marker //dps:cacheline"
//
//dps:cacheline=128
type slot struct {
	toggle atomic.Uint32
	_      [124]byte
}

func (s *slot) flip() { s.toggle.Add(1) }
