package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dps/internal/wire"
)

// Tests for the ring-transport rewiring: wraparound at minimal depth,
// registration under concurrency, fire-and-forget slot hygiene, and the
// zero-allocation guarantee of remote synchronous delegation.

// opNop touches no shared state and allocates nothing; used by the
// allocation pin and the wraparound test so failures isolate the transport.
func opNop(p *Partition, key uint64, args *Args) Result {
	return Result{U: key + args.U[0]}
}

// twoPartRuntime builds a 2-partition runtime with identity hashing so key
// ranges are predictable: keys 0..999 are partition 0, 1000..1999 partition 1.
func twoPartRuntime(t testing.TB, ringDepth int) *Runtime {
	t.Helper()
	rt, err := New(Config{
		Partitions:    2,
		NamespaceSize: 2000,
		Hash:          IdentityHash,
		RingDepth:     ringDepth,
		Init:          newCounterInit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestRingWraparoundDepthOne drives many more messages than slots through a
// depth-1 ring, forcing the send cursor to wrap on every message. Both the
// synchronous path (slot freed by the completion's consumed flag) and the
// asynchronous path (slot freed by the server's release alone) must recycle
// the single slot correctly.
func TestRingWraparoundDepthOne(t *testing.T) {
	t.Parallel()
	rt := twoPartRuntime(t, 1)
	stop := startServer(t, rt, 1)
	defer stop()

	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	const n = 200
	for i := uint64(0); i < n; i++ {
		res := th.ExecuteSync(1000+i%7, opNop, Args{U: [4]uint64{i}})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if want := 1000 + i%7 + i; res.U != want {
			t.Fatalf("sync wraparound op %d: got %d, want %d", i, res.U, want)
		}
	}
	for i := uint64(0); i < n; i++ {
		th.ExecuteAsync(1500, opAdd, Args{U: [4]uint64{1}})
	}
	th.Drain()
	res := th.ExecuteSync(1500, opGet, Args{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.U != n {
		t.Fatalf("async wraparound: counter = %d, want %d", res.U, n)
	}
}

// TestRegisterChurnConcurrent exercises Register/Execute/Serve/Unregister
// from many goroutines at once. Under -race this validates that the
// least-loaded locality scan, thread-id recycling, and ring publication are
// properly synchronized with concurrent serving.
func TestRegisterChurnConcurrent(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 4)
	const (
		goroutines = 8
		rounds     = 40
		opsEach    = 20
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				th, err := rt.Register()
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < opsEach; i++ {
					key := uint64(g*1000 + r*opsEach + i)
					res := th.ExecuteSync(key, opAdd, Args{U: [4]uint64{1}})
					if res.Err != nil {
						t.Error(res.Err)
					}
					if i%5 == 0 {
						th.ExecuteAsync(key, opAdd, Args{U: [4]uint64{1}})
					}
					th.Serve()
				}
				th.Unregister()
			}
		}(g)
	}
	wg.Wait()
	// Every thread handle is gone; worker gauges must read zero.
	for i := 0; i < rt.Partitions(); i++ {
		if w := rt.Metrics().PerPartition[i].Workers; w != 0 {
			t.Errorf("partition %d still reports %d workers after churn", i, w)
		}
	}
}

// TestRegisterBalancesConcurrently registers many threads simultaneously and
// checks the least-loaded placement spread them evenly. Before the scan
// moved under rt.mu, concurrent registrants could observe the same stale
// worker counts and pile onto one locality.
func TestRegisterBalancesConcurrently(t *testing.T) {
	t.Parallel()
	const parts, n = 4, 16
	rt := newTestRuntime(t, parts)
	threads := make([]*Thread, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th, err := rt.Register()
			if err != nil {
				t.Error(err)
				return
			}
			threads[i] = th
		}(i)
	}
	wg.Wait()
	counts := make([]int, parts)
	for _, th := range threads {
		if th != nil {
			counts[th.Locality()]++
		}
	}
	for loc, c := range counts {
		if c != n/parts {
			t.Errorf("locality %d holds %d threads, want exactly %d: %v", loc, c, n/parts, counts)
		}
	}
	for _, th := range threads {
		if th != nil {
			th.Unregister()
		}
	}
}

// opBigResult returns a large heap value through Result.P, so a slot that
// retains it is visible to the retention test.
func opBigResult(p *Partition, key uint64, args *Args) Result {
	return Result{U: key, P: make([]byte, 1024)}
}

// TestAsyncSlotDropsResult verifies fire-and-forget serving clears the
// result (including Result.P) from the ring slot at release time, rather
// than pinning it until the sender happens to reuse the slot.
func TestAsyncSlotDropsResult(t *testing.T) {
	t.Parallel()
	rt := twoPartRuntime(t, 8)
	stop := startServer(t, rt, 1)

	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		th.ExecuteAsync(1000+i, opBigResult, Args{})
	}
	th.Drain()
	stop()

	r := rt.parts[1].rings[th.ID()].Load()
	for i := 0; i < r.Depth(); i++ {
		m := r.Slot(i).Payload()
		for j := range m.ops {
			e := &m.ops[j]
			if e.res.P != nil || e.res.U != 0 {
				t.Errorf("slot %d entry %d retains async result %+v after release", i, j, e.res)
			}
			if e.panicVal != nil {
				t.Errorf("slot %d entry %d retains panic value after release", i, j)
			}
		}
	}
	th.Unregister()
}

// TestRemoteExecuteSyncZeroAlloc pins the headline property of the ring
// transport: a remote synchronous delegation — send, peer-serve, await,
// complete — performs zero heap allocations on either side.
func TestRemoteExecuteSyncZeroAlloc(t *testing.T) {
	rt := twoPartRuntime(t, DefaultRingDepth)
	stop := startServer(t, rt, 1)
	defer stop()

	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	// Warm up: fault in rings, histograms, and scheduler state.
	for i := uint64(0); i < 100; i++ {
		if res := th.ExecuteSync(1000+i, opNop, Args{U: [4]uint64{i}}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		th.ExecuteSync(1002, opNop, Args{U: [4]uint64{3}})
	})
	if allocs != 0 {
		t.Errorf("remote ExecuteSync allocated %.1f objects/op, want 0", allocs)
	}
}

// TestPackedAsyncZeroAlloc pins the packed send path: a full burst of
// remote fire-and-forget operations plus the Drain barrier — pack, claim,
// publish, doorbell, await, reap — allocates nothing. Drain reads what it
// owes off the thread's rings, so no list grows with the bursts.
func TestPackedAsyncZeroAlloc(t *testing.T) {
	rt := twoPartRuntime(t, DefaultRingDepth)
	stop := startServer(t, rt, 1)
	defer stop()

	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	for i := uint64(0); i < 100; i++ {
		th.ExecuteAsync(1000+i%7, opNop, Args{U: [4]uint64{i}})
	}
	th.Drain()
	allocs := testing.AllocsPerRun(200, func() {
		for i := uint64(0); i < burstSize; i++ {
			th.ExecuteAsync(1000+i, opNop, Args{U: [4]uint64{i}})
		}
		th.Drain()
	})
	if allocs != 0 {
		t.Errorf("packed ExecuteAsync+Drain allocated %.1f objects/burst, want 0", allocs)
	}
}

// TestBurstPacksAsyncOps checks the packing arithmetic end to end: a dense
// run of same-partition fire-and-forget operations must share slots at
// burstSize ops each (the flush-at-full rule makes the split deterministic),
// and the burst-occupancy snapshot must account for every operation.
func TestBurstPacksAsyncOps(t *testing.T) {
	t.Parallel()
	rt := twoPartRuntime(t, DefaultRingDepth)
	stop := startServer(t, rt, 1)
	defer stop()

	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	const n = 10 // burstSize*2 full slots + one partial
	for i := 0; i < n; i++ {
		th.ExecuteAsync(1500, opAdd, Args{U: [4]uint64{1}})
	}
	th.Drain()
	if res := th.ExecuteSync(1500, opGet, Args{}); res.U != n {
		t.Fatalf("counter = %d, want %d", res.U, n)
	}

	bs := rt.Metrics().Bursts
	// The trailing ExecuteSync is its own single-op burst.
	wantSlots := uint64(n/burstSize + 1 + 1)
	if bs.Slots != wantSlots || bs.Ops != n+1 {
		t.Fatalf("bursts = %+v, want %d slots carrying %d ops", bs, wantSlots, n+1)
	}
	if bs.Buckets[burstSize] != n/burstSize {
		t.Fatalf("full bursts = %d, want %d (%+v)", bs.Buckets[burstSize], n/burstSize, bs)
	}
	if got := bs.OpsPerSlot(); got <= 1 {
		t.Fatalf("ops/slot = %.2f, want > 1", got)
	}
}

// TestBurstWraparoundDepthOne drives packed bursts through a depth-1 ring:
// every burst reuses the single slot, so entry state (results, live count,
// fire flags) must be fully reset between claims, and synchronous
// completions must read the right entry of the recycled slot.
func TestBurstWraparoundDepthOne(t *testing.T) {
	t.Parallel()
	rt := twoPartRuntime(t, 1)
	stop := startServer(t, rt, 1)
	defer stop()

	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	const rounds = 100
	for i := uint64(0); i < rounds; i++ {
		// Full async burst through the single slot...
		for j := 0; j < burstSize; j++ {
			th.ExecuteAsync(1500, opAdd, Args{U: [4]uint64{1}})
		}
		// ...then a sync op that must claim the same slot after the burst
		// fully recycles.
		res := th.ExecuteSync(1000+i%7, opNop, Args{U: [4]uint64{i}})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if want := 1000 + i%7 + i; res.U != want {
			t.Fatalf("round %d: got %d, want %d", i, res.U, want)
		}
	}
	th.Drain()
	if res := th.ExecuteSync(1500, opGet, Args{}); res.U != rounds*burstSize {
		t.Fatalf("counter = %d, want %d", res.U, rounds*burstSize)
	}
}

// TestMixedBurstCompletions packs several ExecuteInto operations into one
// burst (ExecuteInto leaves the burst open) and checks each completion reads
// its own entry — results must not smear across entries of a shared slot.
func TestMixedBurstCompletions(t *testing.T) {
	t.Parallel()
	rt := twoPartRuntime(t, DefaultRingDepth)
	stop := startServer(t, rt, 1)
	defer stop()

	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	var cs [3]Completion
	for i := range cs {
		th.ExecuteInto(&cs[i], 1000+uint64(i), opNop, Args{U: [4]uint64{uint64(i) * 10}})
	}
	if cs[0].slot != cs[1].slot || cs[1].slot != cs[2].slot {
		t.Fatal("consecutive same-partition operations did not share a slot")
	}
	// Await in reverse order to exercise out-of-order entry consumption.
	for i := len(cs) - 1; i >= 0; i-- {
		res := cs[i].Result()
		if want := 1000 + uint64(i) + uint64(i)*10; res.U != want {
			t.Fatalf("completion %d: got %d, want %d", i, res.U, want)
		}
	}
}

// reportPaths starts counting the paths rt's operations take, and the
// returned func stops b's timer and reports them per operation of b: ring
// sends, synchronous and fire-and-forget (remote/op), and operations run
// inline on their sender toward another locality (inline/op, UnattendedExecs).
// Every benchmark of the package reports both, so a row that never crosses a
// ring shows it.
func reportPaths(b *testing.B, rt *Runtime) func() {
	before := rt.Metrics().Totals
	return func() {
		b.StopTimer()
		after, n := rt.Metrics().Totals, float64(b.N)
		b.ReportMetric(float64(after.RemoteSends+after.AsyncSends-before.RemoteSends-before.AsyncSends)/n, "remote/op")
		b.ReportMetric(float64(after.UnattendedExecs-before.UnattendedExecs)/n, "inline/op")
	}
}

// BenchmarkDelegation measures the remote delegation round-trip over the
// ring transport against a dedicated serving peer (compare with
// BenchmarkFig3DelegationRoundTrip at the repo root, which serves from
// inside the await loop). The notiming variant removes the obs layer's
// clock reads via Config.DisableTiming.
func BenchmarkDelegation(b *testing.B) {
	run := func(b *testing.B, disableTiming bool, body func(b *testing.B, th *Thread)) {
		rt, err := New(Config{
			Partitions:    2,
			NamespaceSize: 2000,
			Hash:          IdentityHash,
			Init:          newCounterInit(),
			DisableTiming: disableTiming,
		})
		if err != nil {
			b.Fatal(err)
		}
		var stopped atomic.Bool
		var wg sync.WaitGroup
		srv, err := rt.RegisterAt(1)
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer srv.Unregister()
			for !stopped.Load() {
				if srv.Serve() == 0 {
					runtime.Gosched()
				}
			}
		}()
		th, err := rt.RegisterAt(0)
		if err != nil {
			b.Fatal(err)
		}
		report := reportPaths(b, rt)
		b.ReportAllocs()
		b.ResetTimer()
		body(b, th)
		report()
		th.Unregister()
		stopped.Store(true)
		wg.Wait()
	}
	b.Run("sync", func(b *testing.B) {
		run(b, false, func(b *testing.B, th *Thread) {
			for i := 0; i < b.N; i++ {
				th.ExecuteSync(1000+uint64(i)%7, opNop, Args{U: [4]uint64{uint64(i)}})
			}
		})
	})
	b.Run("sync-notiming", func(b *testing.B) {
		run(b, true, func(b *testing.B, th *Thread) {
			for i := 0; i < b.N; i++ {
				th.ExecuteSync(1000+uint64(i)%7, opNop, Args{U: [4]uint64{uint64(i)}})
			}
		})
	})
	b.Run("async", func(b *testing.B) {
		run(b, false, func(b *testing.B, th *Thread) {
			for i := 0; i < b.N; i++ {
				th.ExecuteAsync(1000+uint64(i)%7, opNop, Args{U: [4]uint64{uint64(i)}})
			}
			th.Drain()
			if s := th.rt.Metrics(); s.Bursts.Slots > 0 {
				b.ReportMetric(s.Bursts.OpsPerSlot(), "ops/slot")
			}
		})
	})
}

// TestDrainCoversBurstOpenDuringCompaction sends 32 bursts of fire-and-forget
// operations toward a locality whose one worker never serves and checks that
// Drain waits out every one of them, the newest included. The bursts execute only through Drain's own stall escalation, so a
// concurrent server cannot mask a missed slot. (The name recalls a compaction
// hazard of a since-deleted list of owed slots.)
func TestDrainCoversBurstOpenDuringCompaction(t *testing.T) {
	t.Parallel()
	rt := twoPartRuntime(t, 64)

	idle, err := rt.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Unregister()

	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	const n = 32 * burstSize // 32 bursts; the 32nd note compacts
	for i := 0; i < n; i++ {
		th.ExecuteAsync(1500, opAdd, Args{U: [4]uint64{1}})
	}
	th.Drain()

	res := th.ExecuteLocal(1500, opGet, Args{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.U != n {
		t.Fatalf("after Drain: counter = %d, want %d (a burst escaped the drain barrier)", res.U, n)
	}
}

// TestOpenBurstPerDestination: fire-and-forget operations that alternate
// between two destinations pack as densely as a stream toward one, because
// each destination keeps its own open burst, published only when it fills or
// the thread waits. Alternating between two attended partitions, every slot
// carries burstSize operations. Alternating between a peer's partition and an
// attended local one, the peer's n operations ride ⌈n / MaxBurst⌉ frames, and
// the ring's slots stay full too. Each Drain comes before any ring or the
// outstanding wire tokens fill, whose waits would publish a partial burst.
func TestOpenBurstPerDestination(t *testing.T) {
	const rounds, each = 3, 3 * wire.MaxBurst // operations per destination between Drains
	for _, tc := range []struct {
		name string
		peer bool
	}{{"ring", false}, {"wire", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var rt *Runtime
			var th *Thread
			keys, op := [2]uint64{1000, 2000}, Op(opAdd)
			if tc.peer {
				// th is at locality 0; rtHash puts key 1 on partition 1 and
				// key 2 on partition 2, the peer's.
				rt, th = startCluster(t, nil)
				keys, op = [2]uint64{1, 2}, remotePut
			} else {
				var err error
				if rt, err = New(Config{Partitions: 3, NamespaceSize: 3000, Hash: IdentityHash, Init: newCounterInit()}); err != nil {
					t.Fatal(err)
				}
				if th, err = rt.RegisterAt(0); err != nil {
					t.Fatal(err)
				}
				defer th.Unregister()
				defer startServer(t, rt, 2)()
			}
			defer startServer(t, rt, 1)()

			for r := 0; r < rounds; r++ {
				for i := 0; i < 2*each; i++ {
					th.ExecuteAsync(keys[i%2], op, Args{U: [4]uint64{1}, P: []byte{byte(i)}})
				}
				th.Drain()
			}
			ringOps := uint64(rounds * 2 * each)
			if tc.peer {
				ringOps /= 2
				want := uint64(rounds * each / wire.MaxBurst)
				if frames := rt.PeerStats(0).FramesSent; frames != want {
					t.Errorf("%d operations toward the peer sent %d frames, want %d", rounds*each, frames, want)
				}
			}
			if bs := rt.Metrics().Bursts; bs.Ops != ringOps || bs.OpsPerSlot() != burstSize {
				t.Errorf("bursts %v, want %d operations at %d per slot", bs, ringOps, burstSize)
			}
		})
	}
}
