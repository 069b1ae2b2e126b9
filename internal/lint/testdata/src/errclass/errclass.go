// Package errclass seeds the leftover marker of the deleted errclass rule:
// no path wraps a sentinel, and a //dps:errclass-ok left behind is an
// unknown-marker diagnostic rather than a silent opt-out.
package errclass

// classify compared a sentinel under an errclass suppression.
func classify(err, sentinel error) bool {
	// want(+1) marker "unknown marker //dps:errclass-ok"
	//dps:errclass-ok the sentinel is never wrapped
	return err == sentinel
}
