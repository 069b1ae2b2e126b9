package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/chaos"
)

// newChaosRuntime builds a runtime with a fault injector installed and a
// counter shard per partition.
func newChaosRuntime(t testing.TB, parts int, ccfg chaos.Config, mut func(*Config)) (*Runtime, *chaos.Injector) {
	t.Helper()
	inj := chaos.New(ccfg)
	cfg := Config{Partitions: parts, Init: newCounterInit(), Chaos: inj}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, inj
}

// keyFor returns a key owned by partition part.
func keyFor(t testing.TB, rt *Runtime, part int) uint64 {
	t.Helper()
	for key := uint64(0); ; key++ {
		if rt.PartitionForKey(key).ID() == part {
			return key
		}
	}
}

func TestChaosDroppedClaimsStillComplete(t *testing.T) {
	t.Parallel()
	// Half of all serve-claim attempts fail as if another server held the
	// ring. Liveness must survive: retries (and the blocking rescue claim,
	// which is exempt from injection) still complete every operation.
	rt, inj := newChaosRuntime(t, 2, chaos.Config{Seed: 11, DropClaimProb: 0.5}, nil)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	stop := startServer(t, rt, 1)
	defer stop()

	key := keyFor(t, rt, 1)
	const n = 2000
	for i := 0; i < n; i++ {
		if res := t0.ExecuteSync(key, opAdd, Args{U: [4]uint64{1}}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if res := t0.ExecuteSync(key, opGet, Args{}); res.U != n {
		t.Fatalf("value = %d, want %d", res.U, n)
	}
	if c := inj.Counts(); c.ClaimsDropped == 0 {
		t.Fatal("injector never dropped a claim")
	}
}

func TestChaosRingFullBackpressure(t *testing.T) {
	t.Parallel()
	// Sends are forced through the §4.4 ring-full path far more often than
	// real occupancy would cause; every operation must still complete.
	rt, inj := newChaosRuntime(t, 2, chaos.Config{Seed: 12, RingFullProb: 0.4}, nil)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	stop := startServer(t, rt, 1)
	defer stop()

	key := keyFor(t, rt, 1)
	const n = 1000
	for i := 0; i < n; i++ {
		if res := t0.ExecuteSync(key, opAdd, Args{U: [4]uint64{1}}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if res := t0.ExecuteSync(key, opGet, Args{}); res.U != n {
		t.Fatalf("value = %d, want %d", res.U, n)
	}
	if inj.Counts().RingFulls == 0 {
		t.Fatal("injector never forced a full ring")
	}
	if rt.Metrics().Totals.RingFullWaits == 0 {
		t.Fatal("forced full rings not visible in the RingFull counter")
	}
}

func TestChaosInjectedAsyncPanicsRoutedToHandler(t *testing.T) {
	t.Parallel()
	// Injected panics in fire-and-forget operations must be recovered and
	// reported — the serving thread survives and keeps serving. Panicked
	// operations never execute, so the final counter value accounts for
	// exactly the non-panicked adds.
	var handled atomic.Uint64
	rt, inj := newChaosRuntime(t, 2, chaos.Config{Seed: 13, OpPanicProb: 0.05}, func(cfg *Config) {
		cfg.OnPanic = func(info PanicInfo) {
			if info.Value != chaos.ErrInjectedPanic {
				t.Errorf("handler got %v, want ErrInjectedPanic", info.Value)
			}
			if !info.Async {
				t.Error("fire-and-forget panic reported with Async=false")
			}
			handled.Add(1)
		}
	})
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	stop := startServer(t, rt, 1)
	defer stop()

	key := keyFor(t, rt, 1)
	const n = 2000
	for i := 0; i < n; i++ {
		t0.ExecuteAsync(key, opAdd, Args{U: [4]uint64{1}})
	}
	t0.Drain()
	panics := inj.Counts().OpPanics
	if panics == 0 {
		t.Fatal("injector never fired an op panic")
	}
	if got := handled.Load(); got != panics {
		t.Fatalf("handler saw %d panics, injector fired %d", got, panics)
	}
	if m := rt.Metrics().Totals; m.Panics != panics {
		t.Fatalf("Panics counter = %d, want %d", m.Panics, panics)
	}
	// opGet must not race the assertion with injected panics: the injector
	// may panic the get itself, which re-raises here (sync with a live
	// awaiter). Retry until the get survives injection.
	for {
		var res Result
		ok := func() (ok bool) {
			defer func() {
				if rec := recover(); rec != nil && rec != chaos.ErrInjectedPanic {
					panic(rec)
				}
			}()
			res = t0.ExecuteSync(key, opGet, Args{})
			return true
		}()
		if !ok {
			continue
		}
		if res.U != n-panics {
			t.Fatalf("value = %d, want %d (= %d sends - %d injected panics)", res.U, n-panics, n, panics)
		}
		break
	}
}

func TestChaosSyncInjectedPanicReRaisesAtAwaiter(t *testing.T) {
	t.Parallel()
	// A synchronous operation with a live awaiter re-raises its (injected)
	// panic on the awaiting thread regardless of policy: the issuer of the
	// faulty operation is the right place for the failure to surface.
	rt, _ := newChaosRuntime(t, 2, chaos.Config{Seed: 14, OpPanicProb: 1}, nil)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	stop := startServer(t, rt, 1)
	defer stop()

	defer func() {
		if rec := recover(); rec != chaos.ErrInjectedPanic {
			t.Errorf("recovered %v, want ErrInjectedPanic", rec)
		}
	}()
	t0.ExecuteSync(keyFor(t, rt, 1), opAdd, Args{U: [4]uint64{1}})
}

func TestChaosStallDetectionRescuesWedgedLocality(t *testing.T) {
	t.Parallel()
	// Locality 1 has a registered thread that never serves — the paper's
	// protocol has no answer for this (workers != 0 disables both the
	// inline fallback and the abandoned-locality rescue). The stall
	// detector must notice the flat progress clock, fire OnStall, and
	// force-rescue the request so the sender completes anyway.
	var stalls atomic.Uint64
	tr := &stallTracer{stalls: &stalls}
	rt, _ := newChaosRuntime(t, 2, chaos.Config{Seed: 15}, func(cfg *Config) {
		cfg.Tracer = tr
	})
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	wedged, err := rt.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Unregister()

	res := t0.ExecuteSync(keyFor(t, rt, 1), opPut, Args{U: [4]uint64{9}})
	if res.Err != nil || res.U != 9 {
		t.Fatalf("res = (%d, %v), want (9, nil)", res.U, res.Err)
	}
	m := rt.Metrics().Totals
	if m.Stalls == 0 {
		t.Fatal("stall detector never fired")
	}
	if stalls.Load() == 0 {
		t.Fatal("Tracer.OnStall never fired")
	}
	if m.Rescued == 0 {
		t.Fatal("forced rescue served nothing")
	}
}

type stallTracer struct {
	NopTracer
	stalls *atomic.Uint64
}

func (s *stallTracer) OnStall(tid, part int, key uint64) { s.stalls.Add(1) }

func TestChaosStorm(t *testing.T) {
	t.Parallel()
	// Everything at once except op panics (a sync panic re-raises at its
	// awaiter, which would abort workers): dropped claims, slow servers,
	// slow operations, forced full rings — across four localities with two
	// threads each, under -race in CI. The invariant is total conservation:
	// every add lands exactly once.
	rt, inj := newChaosRuntime(t, 4, chaos.Config{
		Seed:           16,
		DropClaimProb:  0.2,
		ServeDelayProb: 0.01, ServeDelay: 100 * time.Microsecond,
		OpDelayProb: 0.005, OpDelay: 100 * time.Microsecond,
		RingFullProb: 0.1,
	}, nil)
	const (
		parts   = 4
		perLoc  = 2
		keys    = 128
		opsEach = 400
	)
	// Register every thread before any worker starts: on a single-core
	// machine a goroutine whose operations all run inline never yields, so
	// late registration would leave every peer locality empty and the whole
	// storm would degrade to the inline fallback.
	var threads []*Thread
	for loc := 0; loc < parts; loc++ {
		for w := 0; w < perLoc; w++ {
			th, err := rt.RegisterAt(loc)
			if err != nil {
				t.Fatal(err)
			}
			threads = append(threads, th)
		}
	}
	var wg sync.WaitGroup
	for i, th := range threads {
		wg.Add(1)
		go func(i int, th *Thread) {
			defer wg.Done()
			defer th.Unregister()
			rng := uint64(i*131 + 1)
			for n := 0; n < opsEach; n++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				if res := th.ExecuteSync(rng%keys, opAdd, Args{U: [4]uint64{1}}); res.Err != nil {
					t.Error(res.Err)
					return
				}
			}
		}(i, th)
	}
	wg.Wait()
	var sum uint64
	for i := 0; i < parts; i++ {
		s := rt.Partition(i).Data().(*counterShard)
		s.mu.Lock()
		for _, v := range s.m {
			sum += v
		}
		s.mu.Unlock()
	}
	if want := uint64(parts * perLoc * opsEach); sum != want {
		t.Fatalf("shard sum = %d, want %d", sum, want)
	}
	c := inj.Counts()
	if c.ClaimsDropped == 0 || c.RingFulls == 0 {
		t.Fatalf("storm too quiet: %+v", c)
	}
}

func TestChaosShutdownDrainsWedgedRuntime(t *testing.T) {
	t.Parallel()
	// A sender blocks on a delegation to a locality whose only thread never
	// serves. Shutdown's sweep must execute the pending request (unblocking
	// the sender), and Shutdown must return at its deadline even though
	// both threads are still registered, reporting them.
	rt, _ := newChaosRuntime(t, 2, chaos.Config{Seed: 17}, nil)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	wedged, err := rt.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan Result, 1)
	go func() {
		got <- t0.ExecuteSync(keyFor(t, rt, 1), opPut, Args{U: [4]uint64{5}})
	}()
	// Give the send time to publish before sweeping.
	time.Sleep(20 * time.Millisecond)

	rep, err := rt.Shutdown(300 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Shutdown error = %v, want ErrTimeout (threads still registered)", err)
	}
	if rep.LiveThreads != 2 {
		t.Fatalf("LiveThreads = %d, want 2", rep.LiveThreads)
	}

	select {
	case res := <-got:
		// Served by the sweep (U==5) or abandoned at the deadline
		// (ErrClosed); wedging forever is the failure mode.
		if res.Err != nil && !errors.Is(res.Err, ErrClosed) {
			t.Fatalf("blocked sender got unexpected error %v", res.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sender still blocked after Shutdown returned")
	}

	// The runtime is down: unregistration must not hang, and new entry
	// calls must panic with ErrClosed.
	t0.Unregister()
	wedged.Unregister()
	func() {
		defer func() {
			if rec := recover(); rec != ErrClosed {
				t.Errorf("post-shutdown ExecuteSync panicked with %v, want ErrClosed", rec)
			}
		}()
		th, err := rt.Register()
		if err == nil {
			th.ExecuteSync(0, opGet, Args{})
		} else if !errors.Is(err, ErrClosed) {
			t.Errorf("post-shutdown Register error = %v, want ErrClosed", err)
		} else {
			panic(ErrClosed) // Register correctly refused; satisfy the recover check.
		}
	}()
}

func TestRescueAbandonedLocalityMidFlight(t *testing.T) {
	t.Parallel()
	// The destination locality empties while a synchronous request is
	// already published: the last worker unregisters before serving it.
	// The sender's await must fall into the rescue path and execute its
	// own ring (§4.3's liveness escape hatch).
	rt := newTestRuntime(t, 2)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	t1, err := rt.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}

	var c Completion
	t0.ExecuteInto(&c, keyFor(t, rt, 1), opPut, Args{U: [4]uint64{7}})
	t1.Unregister() // never served; locality 1 is now abandoned
	res := c.Result()
	if res.Err != nil || res.U != 7 {
		t.Fatalf("res = (%d, %v), want (7, nil)", res.U, res.Err)
	}
	if m := rt.Metrics().Totals; m.Rescued != 1 {
		t.Fatalf("Rescued = %d, want 1", m.Rescued)
	}
}

func TestRescueDuringDrain(t *testing.T) {
	t.Parallel()
	// Fire-and-forget requests are pending when their destination locality
	// empties; the Drain barrier must rescue them rather than wait forever.
	rt := newTestRuntime(t, 2)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	t1, err := rt.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}

	key := keyFor(t, rt, 1)
	const n = DefaultRingDepth / 2 // below ring depth: no ring-full wait
	for i := 0; i < n; i++ {
		t0.ExecuteAsync(key, opAdd, Args{U: [4]uint64{1}})
	}
	t1.Unregister() // abandons the locality with n requests in flight
	t0.Drain()
	res := t0.ExecuteSync(key, opGet, Args{}) // workers==0: runs inline
	if res.U != n {
		t.Fatalf("value = %d, want %d", res.U, n)
	}
	if m := rt.Metrics().Totals; m.Rescued != n {
		t.Fatalf("Rescued = %d, want %d", m.Rescued, n)
	}
}

func TestChaosDoorbellLossFallback(t *testing.T) {
	t.Parallel()
	// Every doorbell ring is lost: senders publish slots but the server
	// never sees a bit set, so the doorbell-driven serve pass finds
	// nothing. The periodic full-scan fallback (serveFullScanEvery) must
	// still drain the rings and complete every operation.
	rt, inj := newChaosRuntime(t, 2, chaos.Config{Seed: 31, DropDoorbellProb: 1}, nil)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	stop := startServer(t, rt, 1)
	defer stop()

	key := keyFor(t, rt, 1)
	const n = 300
	for i := 0; i < n; i++ {
		if res := t0.ExecuteSync(key, opAdd, Args{U: [4]uint64{1}}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if res := t0.ExecuteSync(key, opGet, Args{}); res.U != n {
		t.Fatalf("value = %d, want %d", res.U, n)
	}
	if c := inj.Counts(); c.DoorbellsLost == 0 {
		t.Fatal("injector never dropped a doorbell ring")
	}
}

func TestChaosSplitBurstsStillComplete(t *testing.T) {
	t.Parallel()
	// Every burst-join attempt is refused, so each operation that could
	// have packed into the open burst is forced into its own slot instead.
	// Correctness must not depend on packing: every async op still lands,
	// and the burst histogram records only single-op slots.
	rt, inj := newChaosRuntime(t, 2, chaos.Config{Seed: 32, SplitBurstProb: 1}, nil)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	stop := startServer(t, rt, 1)
	defer stop()

	key := keyFor(t, rt, 1)
	const n = 200
	for i := 0; i < n; i++ {
		t0.ExecuteAsync(key, opAdd, Args{U: [4]uint64{1}})
	}
	t0.Drain()
	if res := t0.ExecuteSync(key, opGet, Args{}); res.U != n {
		t.Fatalf("value = %d, want %d", res.U, n)
	}
	if c := inj.Counts(); c.BurstsSplit == 0 {
		t.Fatal("injector never split a burst")
	}
	if b := rt.Metrics().Bursts; b.Slots != b.Ops {
		t.Fatalf("bursts = %+v: split-everything run must publish only single-op slots", b)
	}
}
