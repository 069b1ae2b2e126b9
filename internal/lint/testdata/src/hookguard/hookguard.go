// Package hookguard seeds violations for dpslint's hookguard rule: every
// call through a //dps:hook guard=G field must be dominated by a read of
// the sibling boolean G, so a disabled hook costs one branch, not a call.
package hookguard

type tracer interface{ Event(n int) }

type nop struct{}

func (nop) Event(int) {}

type runtime struct {
	// trace is never nil (a no-op tracer when tracing is off), the
	// Runtime.tracer pattern.
	//
	//dps:hook guard=tracing
	trace   tracer
	tracing bool

	//dps:hook
	onDrop func(n int) // want hookguard "//dps:hook on onDrop needs guard="
}

type thread struct{ rt *runtime }

func okIf(r *runtime) {
	if r.tracing {
		r.trace.Event(1)
	}
}

func okEarlyReturn(r *runtime) {
	if !r.tracing {
		return
	}
	r.trace.Event(2)
}

func okElse(r *runtime) {
	if !r.tracing {
		_ = r
	} else {
		r.trace.Event(3)
	}
}

func okShortCircuit(r *runtime, busy bool) {
	_ = r.tracing && busy && call(r.trace)
	_ = !r.tracing || call(r.trace)
}

func okConjunction(r *runtime, busy bool) {
	if busy && r.tracing {
		r.trace.Event(4)
	}
}

func okDeepPath(t *thread) {
	if t.rt.tracing {
		t.rt.trace.Event(5)
	}
}

func okReadsAndWrites(r *runtime) {
	r.trace = nop{}
	t := r.trace // reading the field value needs no guard
	_ = t
}

// badIssue is the mutation audit's Thread.issue mutant: the tracing
// branch dropped around OnSend. Every test still passes, because the
// no-op tracer does nothing; each operation now pays an interface call.
func badIssue(t *thread) {
	t.rt.trace.Event(6) // want hookguard "call through hook field trace is not dominated by a check of t.rt.tracing"
}

func badNilCheck(r *runtime) {
	// A nil check proves nothing: the hook is never nil.
	if r.trace != nil {
		r.trace.Event(7) // want hookguard "not dominated by a check of r.tracing"
	}
}

func badMethodValue(r *runtime) func(int) {
	return r.trace.Event // want hookguard "not dominated"
}

func badWrongPath(r, other *runtime) {
	if other.tracing {
		r.trace.Event(8) // want hookguard "not dominated by a check of r.tracing"
	}
}

func badAfterUse(r *runtime) {
	r.trace.Event(9) // want hookguard "not dominated"
	if !r.tracing {
		return
	}
}

func call(t tracer) bool { t.Event(0); return true }
