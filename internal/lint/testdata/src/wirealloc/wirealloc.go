// Package wirealloc seeds the leftover marker of the deleted wirealloc rule:
// a //dps:wire-cold left behind is an unknown-marker diagnostic rather than
// a silent opt-out.
package wirealloc

// hello was acknowledged as off the hot path under wirealloc.
//
// want(+2) marker "unknown marker //dps:wire-cold"
//
//dps:wire-cold once per connection
func hello() {}
