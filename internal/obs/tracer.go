package obs

import "time"

// Tracer receives per-event callbacks from the runtime's hot paths. It is
// the extension point for custom telemetry — sampling profilers, exporter
// bridges, debugging taps — that the counter/histogram layer is too
// aggregated for.
//
// Install one via Config.Tracer. When no tracer is installed the runtime
// skips every hook behind a single predictable branch, so the default
// costs nothing on the per-operation path. Implementations must be safe
// for concurrent use: hooks fire on whatever thread produced the event,
// and they run inline — a slow hook slows the runtime.
type Tracer interface {
	// OnSend fires after a delegation is published to partition part's
	// ring: tid is the sending thread, sync distinguishes an operation with
	// a completion record from ExecuteAsync.
	OnSend(tid, part int, key uint64, sync bool)
	// OnServe fires after thread tid executes a request delegated to
	// partition part; d is the operation's execution time.
	OnServe(tid, part int, key uint64, d time.Duration)
	// OnComplete fires when thread tid picks up the completion of its own
	// synchronous delegation to partition part; d is the send→completion
	// latency.
	OnComplete(tid, part int, key uint64, d time.Duration)
	// OnRingFull fires when thread tid finds its ring to partition part
	// full and must serve/yield before sending (§4.4 back-pressure).
	OnRingFull(tid, part int)
	// OnStall fires when thread tid, waiting on a request to partition
	// part (key is the stuck request's key, or 0 when the wait covers no
	// single request), observes the partition serve nothing across a full
	// stall-detection window. The runtime escalates to forced rescue by
	// itself; the hook is the operator's signal that a locality's threads
	// are wedged or starved. It may fire repeatedly — once per detection
	// window — while the stall persists.
	OnStall(tid, part int, key uint64)
}

// NopTracer is the no-op Tracer the runtime falls back to when none is
// configured. Embed it to implement only the hooks of interest.
type NopTracer struct{}

// OnSend implements Tracer.
func (NopTracer) OnSend(tid, part int, key uint64, sync bool) {}

// OnServe implements Tracer.
func (NopTracer) OnServe(tid, part int, key uint64, d time.Duration) {}

// OnComplete implements Tracer.
func (NopTracer) OnComplete(tid, part int, key uint64, d time.Duration) {}

// OnRingFull implements Tracer.
func (NopTracer) OnRingFull(tid, part int) {}

// OnStall implements Tracer.
func (NopTracer) OnStall(tid, part int, key uint64) {}
