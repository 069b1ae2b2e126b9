package core

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sumPartitions adds up the per-partition counters field by field. It walks
// Metrics by reflection — every field is a uint64 counter — so a counter
// added to the schema is summed without this test being told about it.
func sumPartitions(t *testing.T, s Snapshot) Metrics {
	t.Helper()
	var sum Metrics
	sv := reflect.ValueOf(&sum).Elem()
	for _, pm := range s.PerPartition {
		pv := reflect.ValueOf(pm.Totals)
		for i := 0; i < sv.NumField(); i++ {
			if sv.Field(i).Kind() != reflect.Uint64 {
				t.Fatalf("Metrics.%s is not a uint64 counter", sv.Type().Field(i).Name)
			}
			sv.Field(i).SetUint(sv.Field(i).Uint() + pv.Field(i).Uint())
		}
	}
	return sum
}

// TestPerPartitionAttribution checks that the per-partition breakdown sums
// to the aggregate and that counters land on the partitions the events
// concern: sends on the destination, serves on the serving locality.
func TestPerPartitionAttribution(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	stop := startServer(t, rt, 1)

	local, remote := uint64(0), uint64(0)
	for key := uint64(0); key < 64; key++ {
		if res := t0.ExecuteSync(key, opAdd, Args{U: [4]uint64{1}}); res.Err != nil {
			t.Fatal(res.Err)
		}
		if rt.PartitionForKey(key).ID() == 0 {
			local++
		} else {
			remote++
		}
	}
	stop()

	s := rt.Metrics()
	for i, pm := range s.PerPartition {
		if pm.Partition != i {
			t.Errorf("PerPartition[%d].Partition = %d", i, pm.Partition)
		}
	}
	if sum := sumPartitions(t, s); sum != s.Totals {
		t.Fatalf("per-partition sum %+v != totals %+v", sum, s.Totals)
	}
	// t0 is bound to locality 0: its local execs hit partition 0, its
	// delegations target partition 1, and the server serves locality 1.
	if s.PerPartition[0].LocalExecs != local || s.PerPartition[1].LocalExecs != 0 {
		t.Errorf("LocalExecs = %d,%d want %d,0",
			s.PerPartition[0].LocalExecs, s.PerPartition[1].LocalExecs, local)
	}
	if s.PerPartition[1].RemoteSends != remote || s.PerPartition[0].RemoteSends != 0 {
		t.Errorf("RemoteSends = %d,%d want 0,%d",
			s.PerPartition[0].RemoteSends, s.PerPartition[1].RemoteSends, remote)
	}
	if s.PerPartition[1].Served+s.PerPartition[1].Rescued != remote {
		t.Errorf("partition 1 served+rescued = %d, want %d",
			s.PerPartition[1].Served+s.PerPartition[1].Rescued, remote)
	}
	if s.Latency.SyncDelegation.Count != remote {
		t.Errorf("sync-delegation histogram count = %d, want %d",
			s.Latency.SyncDelegation.Count, remote)
	}
	if s.Latency.LocalExec.Count != local {
		t.Errorf("local-exec histogram count = %d, want %d",
			s.Latency.LocalExec.Count, local)
	}
	if s.Imbalance() <= 0 {
		t.Error("imbalance not computed")
	}
}

// TestAttributionUnderChurn hammers the runtime with workers that register
// and unregister continuously while issuing operations, then checks the
// books still balance: per-partition sums equal totals, every issued op is
// accounted as exactly one local exec, unattended exec or remote send, and
// every remote
// send was served or rescued.
func TestAttributionUnderChurn(t *testing.T) {
	t.Parallel()
	const (
		parts   = 4
		workers = 8
		rounds  = 40
		opsEach = 25
	)
	rt := newTestRuntime(t, parts)
	var issued atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				th, err := rt.RegisterAt((w + r) % parts)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < opsEach; i++ {
					key := uint64(w*100000 + r*1000 + i)
					if res := th.ExecuteSync(key, opAdd, Args{U: [4]uint64{1}}); res.Err != nil {
						t.Error(res.Err)
					}
					issued.Add(1)
				}
				th.Unregister()
			}
		}(w)
	}
	wg.Wait()

	s := rt.Metrics()
	if sum := sumPartitions(t, s); sum != s.Totals {
		t.Fatalf("per-partition sum %+v != totals %+v", sum, s.Totals)
	}
	if got := s.Totals.LocalExecs + s.Totals.UnattendedExecs + s.Totals.RemoteSends; got != issued.Load() {
		t.Fatalf("LocalExecs+UnattendedExecs+RemoteSends = %d, want %d issued ops", got, issued.Load())
	}
	if got := s.Totals.Served + s.Totals.Rescued; got < s.Totals.RemoteSends {
		t.Fatalf("Served+Rescued = %d < RemoteSends = %d", got, s.Totals.RemoteSends)
	}
	if s.Latency.SyncDelegation.Count != s.Totals.RemoteSends {
		t.Fatalf("sync-delegation count = %d, want %d",
			s.Latency.SyncDelegation.Count, s.Totals.RemoteSends)
	}
}

func TestUseAfterUnregisterPanics(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	th, err := rt.Register()
	if err != nil {
		t.Fatal(err)
	}
	th.Unregister()
	th.Unregister() // idempotent, must not panic

	expectPanic := func(name string, fn func()) {
		defer func() {
			rec := recover()
			if rec == nil {
				t.Errorf("%s after Unregister did not panic", name)
				return
			}
			err, ok := rec.(error)
			if !ok || !errors.Is(err, ErrUnregistered) {
				t.Errorf("%s panicked with %v, want ErrUnregistered", name, rec)
			}
		}()
		fn()
	}
	expectPanic("ExecuteInto", func() { th.ExecuteInto(new(Completion), 1, opGet, Args{}) })
	expectPanic("ExecuteSync", func() { th.ExecuteSync(1, opGet, Args{}) })
	expectPanic("ExecuteAsync", func() { th.ExecuteAsync(1, opGet, Args{}) })
	expectPanic("ExecuteLocal", func() { th.ExecuteLocal(1, opGet, Args{}) })
	expectPanic("ExecutePartition", func() { th.ExecutePartition(0, 1, opGet, Args{}) })
	expectPanic("ExecuteAll", func() { th.ExecuteAll(opCount, Args{}, nil) })
	expectPanic("Serve", func() { th.Serve() })
	expectPanic("Drain", func() { th.Drain() })
}

// recordingTracer counts hook invocations.
type recordingTracer struct {
	sends, serves, completes, ringFulls, stalls atomic.Uint64
}

func (tr *recordingTracer) OnSend(tid, part int, key uint64, sync bool) { tr.sends.Add(1) }
func (tr *recordingTracer) OnServe(tid, part int, key uint64, d time.Duration) {
	tr.serves.Add(1)
}
func (tr *recordingTracer) OnComplete(tid, part int, key uint64, d time.Duration) {
	tr.completes.Add(1)
}
func (tr *recordingTracer) OnRingFull(tid, part int)          { tr.ringFulls.Add(1) }
func (tr *recordingTracer) OnStall(tid, part int, key uint64) { tr.stalls.Add(1) }

func TestTracerHooksFire(t *testing.T) {
	t.Parallel()
	tr := &recordingTracer{}
	rt, err := New(Config{Partitions: 2, Init: newCounterInit(), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	stop := startServer(t, rt, 1)
	key := uint64(0)
	for rt.PartitionForKey(key).ID() != 1 {
		key++
	}
	const n = 50
	for i := 0; i < n; i++ {
		if res := t0.ExecuteSync(key, opAdd, Args{U: [4]uint64{1}}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	stop()

	m := rt.Metrics().Totals
	if got := tr.sends.Load(); got != m.RemoteSends {
		t.Errorf("OnSend fired %d times, RemoteSends = %d", got, m.RemoteSends)
	}
	if got := tr.completes.Load(); got != m.RemoteSends {
		t.Errorf("OnComplete fired %d times, want %d", got, m.RemoteSends)
	}
	if got := tr.serves.Load(); got != m.Served+m.Rescued {
		t.Errorf("OnServe fired %d times, Served+Rescued = %d", got, m.Served+m.Rescued)
	}
	if got := tr.ringFulls.Load(); got != m.RingFullWaits {
		t.Errorf("OnRingFull fired %d times, RingFullWaits = %d", got, m.RingFullWaits)
	}
}

// TestUnsetTracerFiresNoHook holds every hook site to its tracing guard:
// without Config.Tracer the runtime calls no hook at all, so a disabled
// tracer costs one predictable branch per site. A counting tracer is put in
// behind the unset flag, and one sender drives each hooked event toward a
// locality whose only thread makes no call: a send, a full one-slot ring, a
// stall, the stall rescue serving the ring, and a completion.
func TestUnsetTracerFiresNoHook(t *testing.T) {
	t.Parallel()
	rt := twoPartRuntime(t, 1)
	tr := &recordingTracer{}
	rt.tracer = tr // rt.tracing stays false
	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()
	silent, err := rt.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Unregister()

	// A full burst is published and fills the ring; the next send waits
	// for the slot until its stall rescue serves it.
	for i := 0; i <= burstSize; i++ {
		th.ExecuteAsync(1000, opAdd, Args{U: [4]uint64{1}})
	}
	if res := th.ExecuteSync(1000, opGet, Args{}); res.Err != nil || res.U != burstSize+1 {
		t.Fatalf("res = (%d, %v), want (%d, nil)", res.U, res.Err, burstSize+1)
	}
	m := rt.Metrics().Totals
	if m.RemoteSends == 0 || m.RingFullWaits == 0 || m.Stalls == 0 || m.Rescued == 0 {
		t.Fatalf("not every hooked event happened: sends %d, ring-full waits %d, stalls %d, rescued %d",
			m.RemoteSends, m.RingFullWaits, m.Stalls, m.Rescued)
	}
	if n := tr.sends.Load() + tr.serves.Load() + tr.completes.Load() + tr.ringFulls.Load() + tr.stalls.Load(); n != 0 {
		t.Fatalf("an unset tracer was called %d times", n)
	}
}

// TestHotPathAllocations pins the local paths at zero allocations per
// operation: the completion record is a stack value, the arguments handed to
// the Op function live in the thread's own record (Thread.inline), and the
// metrics layer — counters, histograms, the disabled-tracer branch — adds
// none. The remote path's pin lives in TestRemoteExecuteSyncZeroAlloc.
func TestHotPathAllocations(t *testing.T) {
	rt := newTestRuntime(t, 1)
	th, err := rt.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()
	if n := testing.AllocsPerRun(1000, func() {
		th.ExecuteSync(7, opAdd, Args{U: [4]uint64{1}})
	}); n > 0 {
		t.Errorf("local ExecuteSync allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		th.ExecuteLocal(7, opGet, Args{})
	}); n > 0 {
		t.Errorf("ExecuteLocal allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		th.ExecuteAsync(7, opAdd, Args{U: [4]uint64{1}})
	}); n > 0 {
		t.Errorf("local ExecuteAsync allocates %v per op, want 0", n)
	}
}

func TestRingOccupancyGauge(t *testing.T) {
	t.Parallel()
	// Fill a ring with async sends while nobody serves the destination:
	// until the ring is full, occupancy must count the slots in flight —
	// burstSize ops pack per slot, and the trailing open burst is not in
	// flight until it is flushed.
	rt, err := New(Config{Partitions: 2, RingDepth: 8, Init: newCounterInit()})
	if err != nil {
		t.Fatal(err)
	}
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	// Register (but never serve) a thread in locality 1, so sends are
	// delegated rather than executed inline.
	t1, err := rt.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(0)
	for rt.PartitionForKey(key).ID() != 1 {
		key++
	}
	const ops = burstSize + 1 // one full slot plus a one-op open burst
	for i := 0; i < ops; i++ {
		t0.ExecuteAsync(key, opAdd, Args{U: [4]uint64{1}})
	}
	if got := rt.Metrics().PerPartition[1].RingOccupancy; got != 1 {
		t.Errorf("partition 1 ring occupancy = %d, want 1 (open burst not in flight)", got)
	}
	t0.Flush()
	s := rt.Metrics()
	if got := s.PerPartition[1].RingOccupancy; got != 2 {
		t.Errorf("partition 1 ring occupancy after flush = %d, want 2", got)
	}
	if got := s.PerPartition[0].RingOccupancy; got != 0 {
		t.Errorf("partition 0 ring occupancy = %d, want 0", got)
	}
	if s.PerPartition[1].Workers != 1 {
		t.Errorf("partition 1 workers = %d, want 1", s.PerPartition[1].Workers)
	}
	// Drain via the idle peer, then confirm the gauge returns to zero.
	for t1.Serve() == 0 {
	}
	t0.Drain()
	if got := rt.Metrics().PerPartition[1].RingOccupancy; got != 0 {
		t.Errorf("ring occupancy after drain = %d, want 0", got)
	}
	t0.Unregister()
	t1.Unregister()
}

func TestSnapshotDeltaOnRuntime(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 1)
	th, err := rt.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()
	for i := 0; i < 10; i++ {
		th.ExecuteSync(uint64(i), opAdd, Args{U: [4]uint64{1}})
	}
	prev := rt.Metrics()
	for i := 0; i < 7; i++ {
		th.ExecuteSync(uint64(i), opAdd, Args{U: [4]uint64{1}})
	}
	d := rt.Metrics().Delta(prev)
	if d.Totals.LocalExecs != 7 {
		t.Errorf("delta LocalExecs = %d, want 7", d.Totals.LocalExecs)
	}
	if d.Latency.LocalExec.Count != 7 {
		t.Errorf("delta local-exec count = %d, want 7", d.Latency.LocalExec.Count)
	}
}
