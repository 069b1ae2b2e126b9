// Package pinned seeds the leftover marker of the deleted pinned rule: a
// //dps:pinned-thread left behind is an unknown-marker diagnostic rather
// than a silent opt-out.
package pinned

// pinState was pinned-thread state under the pinned rule.
type pinState struct {
	// want(+1) marker "unknown marker //dps:pinned-thread"
	//dps:pinned-thread
	cpu int
}

func (p *pinState) get() int { return p.cpu }
