package core

import "dps/internal/obs"

// Observability surface, implemented by internal/obs and re-exported here
// (and from the root dps package) as the supported API.
type (
	// Metrics is the backward-compatible aggregate counter set; it is
	// Snapshot.Totals under its historical name.
	Metrics = obs.Totals
	// Snapshot is the structured view returned by Runtime.Metrics:
	// aggregate counters, per-partition breakdown, latency summaries.
	Snapshot = obs.Snapshot
	// PartitionMetrics is one partition's slice of a Snapshot.
	PartitionMetrics = obs.PartitionMetrics
	// HistogramSummary is one latency histogram's percentile summary.
	HistogramSummary = obs.HistogramSummary
	// LatencySummaries groups the runtime's three latency histograms.
	LatencySummaries = obs.LatencySummaries
	// BurstSummary aggregates the burst-occupancy histogram: how many
	// operations each published delegation slot carried (Snapshot.Bursts).
	BurstSummary = obs.BurstSummary
	// Tracer is the pluggable per-event hook interface (Config.Tracer).
	Tracer = obs.Tracer
	// NopTracer is a Tracer that ignores every event; embed it to
	// implement only the hooks of interest.
	NopTracer = obs.NopTracer
)

// Metrics returns a structured snapshot of the runtime's activity:
// aggregate counters (Totals), a per-partition breakdown with worker and
// ring-occupancy gauges, and latency histogram summaries. Snapshots are
// plain data; interval activity is snap2.Delta(snap1).
func (rt *Runtime) Metrics() Snapshot {
	s := rt.rec.Snapshot()
	for i, p := range rt.parts {
		s.PerPartition[i].Workers = int(p.workers.Load())
		s.PerPartition[i].RingOccupancy = p.ringOccupancy()
	}
	for _, wp := range rt.peers {
		s.Peers = append(s.Peers, wp.Stats())
	}
	rt.mu.Lock()
	for _, srv := range rt.servers {
		s.Totals.DedupReplays += srv.Replays()
	}
	rt.mu.Unlock()
	return s
}

// ringOccupancy counts delegation slots currently in flight in the
// partition's rings across all sender threads (each slot carries up to a
// burst of operations; open unpublished bursts are not in flight). It reads
// each slot's toggle without claiming the rings, so the result is a racy
// gauge — exact only in quiescence.
func (p *Partition) ringOccupancy() int {
	n := 0
	for i := range p.rings {
		if r := p.rings[i].Load(); r != nil {
			n += r.Occupancy()
		}
	}
	return n
}
