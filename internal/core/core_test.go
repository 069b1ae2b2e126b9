package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// counterShard is a trivial per-partition data-structure used by tests: a
// map of key -> value guarded by a mutex (DPS provides no synchronization,
// so even the test shard synchronizes itself).
type counterShard struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func newCounterInit() func(p *Partition) any {
	return func(p *Partition) any {
		return &counterShard{m: make(map[uint64]uint64)}
	}
}

func opPut(p *Partition, key uint64, args *Args) Result {
	s := p.Data().(*counterShard)
	s.mu.Lock()
	s.m[key] = args.U[0]
	s.mu.Unlock()
	return Result{U: args.U[0]}
}

func opGet(p *Partition, key uint64, args *Args) Result {
	s := p.Data().(*counterShard)
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		return Result{Err: errors.New("not found")}
	}
	return Result{U: v}
}

func opAdd(p *Partition, key uint64, args *Args) Result {
	s := p.Data().(*counterShard)
	s.mu.Lock()
	s.m[key] += args.U[0]
	v := s.m[key]
	s.mu.Unlock()
	return Result{U: v}
}

func opCount(p *Partition, key uint64, args *Args) Result {
	s := p.Data().(*counterShard)
	s.mu.Lock()
	n := uint64(len(s.m))
	s.mu.Unlock()
	return Result{U: n}
}

func newTestRuntime(t testing.TB, parts int) *Runtime {
	t.Helper()
	rt, err := New(Config{Partitions: parts, Init: newCounterInit()})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// startServer registers a thread at locality loc synchronously (so callers
// never race with registration) and serves on it from a goroutine until the
// returned stop function is called.
func startServer(t testing.TB, rt *Runtime, loc int) (stop func()) {
	t.Helper()
	th, err := rt.RegisterAt(loc)
	if err != nil {
		t.Fatal(err)
	}
	var stopped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer th.Unregister()
		for !stopped.Load() {
			if th.Serve() == 0 {
				runtime.Gosched()
			}
		}
	}()
	return func() {
		stopped.Store(true)
		wg.Wait()
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero partitions", Config{}},
		{"negative partitions", Config{Partitions: -1}},
		{"partitions exceed namespace", Config{Partitions: 8, NamespaceSize: 4}},
		{"negative ring depth", Config{Partitions: 1, RingDepth: -1}},
		{"negative max threads", Config{Partitions: 1, MaxThreads: -3}},
		{"negative op timeout", Config{Partitions: 1, OpTimeout: -time.Second}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Error("New accepted invalid config")
			}
		})
	}
}

func TestPartitionRangesAndInit(t *testing.T) {
	t.Parallel()
	rt, err := New(Config{Partitions: 4, NamespaceSize: 400, Init: newCounterInit()})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Partitions() != 4 {
		t.Fatalf("Partitions() = %d, want 4", rt.Partitions())
	}
	for i := 0; i < 4; i++ {
		p := rt.Partition(i)
		if p.ID() != i {
			t.Errorf("Partition(%d).ID() = %d", i, p.ID())
		}
		lo, hi := p.Range()
		if lo != uint64(i)*100 || hi != uint64(i+1)*100 {
			t.Errorf("Partition(%d).Range() = [%d,%d)", i, lo, hi)
		}
		if _, ok := p.Data().(*counterShard); !ok {
			t.Errorf("Partition(%d).Data() has type %T", i, p.Data())
		}
	}
}

func TestLocalExecuteCompletesInline(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 1) // single partition: every key is local
	th, err := rt.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	var c Completion
	th.ExecuteInto(&c, 42, opPut, Args{U: [4]uint64{7}})
	res, ok := c.Ready()
	if !ok {
		t.Fatal("local completion not immediately ready")
	}
	if res.U != 7 {
		t.Fatalf("res.U = %d, want 7", res.U)
	}
	m := rt.Metrics().Totals
	if m.LocalExecs != 1 || m.RemoteSends != 0 {
		t.Fatalf("metrics = %+v, want 1 local, 0 remote", m)
	}
}

func TestRemoteDelegation(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()

	// A peer thread in locality 1 that serves until told to stop.
	stop := startServer(t, rt, 1)

	// Find a key owned by partition 1.
	key := uint64(0)
	for rt.PartitionForKey(key).ID() != 1 {
		key++
	}
	res := t0.ExecuteSync(key, opPut, Args{U: [4]uint64{99}})
	if res.U != 99 {
		t.Fatalf("put result = %d, want 99", res.U)
	}
	res = t0.ExecuteSync(key, opGet, Args{})
	if res.Err != nil || res.U != 99 {
		t.Fatalf("get = (%d, %v), want (99, nil)", res.U, res.Err)
	}
	// The value must live in partition 1's shard, not partition 0's.
	s1 := rt.Partition(1).Data().(*counterShard)
	s1.mu.Lock()
	_, inP1 := s1.m[key]
	s1.mu.Unlock()
	if !inP1 {
		t.Fatal("delegated put did not write to owning partition")
	}
	stop()

	m := rt.Metrics().Totals
	if m.RemoteSends != 2 {
		t.Fatalf("RemoteSends = %d, want 2", m.RemoteSends)
	}
	if m.Served != 2 {
		t.Fatalf("Served = %d, want 2", m.Served)
	}
}

func TestPeerServingWhileAwaiting(t *testing.T) {
	t.Parallel()
	// Two threads in two localities each delegate to the other; both block
	// in Result(). Progress requires the §4.3 overlap: each must serve the
	// other's request while awaiting its own. No dedicated server exists.
	rt := newTestRuntime(t, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	// Register both threads before either starts issuing, so neither ever
	// sees an empty peer locality (which would trigger inline fallback).
	threads := make([]*Thread, 2)
	for loc := 0; loc < 2; loc++ {
		th, err := rt.RegisterAt(loc)
		if err != nil {
			t.Fatal(err)
		}
		threads[loc] = th
	}
	for loc := 0; loc < 2; loc++ {
		wg.Add(1)
		go func(loc int) {
			defer wg.Done()
			th := threads[loc]
			defer th.Unregister()
			// Key owned by the *other* locality.
			key := uint64(0)
			for rt.PartitionForKey(key).ID() != 1-loc {
				key++
			}
			for i := 0; i < 200; i++ {
				res := th.ExecuteSync(key, opAdd, Args{U: [4]uint64{1}})
				if res.Err != nil {
					errs[loc] = res.Err
					return
				}
			}
		}(loc)
	}
	wg.Wait()
	for loc, err := range errs {
		if err != nil {
			t.Fatalf("locality %d: %v", loc, err)
		}
	}
	m := rt.Metrics().Totals
	// The thread that finishes first unregisters and empties its locality,
	// and a thread parked in its wait leaves its locality unattended: the
	// other's operations then run inline instead of being sent, and a
	// request already in flight is executed by its sender.
	if m.RemoteSends+m.UnattendedExecs != 400 || m.LocalExecs != 0 {
		t.Fatalf("RemoteSends+UnattendedExecs = %d+%d, LocalExecs = %d, want 400, 0", m.RemoteSends, m.UnattendedExecs, m.LocalExecs)
	}
	if m.Served+m.Rescued != m.RemoteSends {
		t.Fatalf("Served+Rescued = %d+%d, want RemoteSends = %d", m.Served, m.Rescued, m.RemoteSends)
	}
}

func TestExecuteFallsBackInlineWhenLocalityEmpty(t *testing.T) {
	t.Parallel()
	// Locality 1 has no registered threads: Execute must run inline rather
	// than deadlock waiting for a server that will never come, counted as
	// an operation toward an unattended locality.
	rt := newTestRuntime(t, 2)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	key := uint64(0)
	for rt.PartitionForKey(key).ID() != 1 {
		key++
	}
	res := t0.ExecuteSync(key, opPut, Args{U: [4]uint64{5}})
	if res.U != 5 {
		t.Fatalf("res.U = %d, want 5", res.U)
	}
	if m := rt.Metrics().Totals; m.RemoteSends != 0 || m.LocalExecs != 0 || m.UnattendedExecs != 1 {
		t.Fatalf("metrics = %+v, want inline fallback", m)
	}
}

func TestExecuteAsyncAndDrain(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
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
	const n = 500 // far exceeds ring depth: exercises ring-full servicing
	for i := 0; i < n; i++ {
		t0.ExecuteAsync(key, opAdd, Args{U: [4]uint64{1}})
	}
	t0.Drain()
	res := t0.ExecuteSync(key, opGet, Args{})
	if res.U != n {
		t.Fatalf("after %d async adds, value = %d", n, res.U)
	}
	stop()
}

func TestAsyncOrderingReadYourWrites(t *testing.T) {
	t.Parallel()
	// §3.3: a thread that writes then reads the same key must observe its
	// write, because the (thread, partition) ring is FIFO and the read is
	// queued behind the write.
	rt := newTestRuntime(t, 2)
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
	for i := uint64(1); i <= 100; i++ {
		t0.ExecuteAsync(key, opPut, Args{U: [4]uint64{i}})
		res := t0.ExecuteSync(key, opGet, Args{})
		if res.U != i {
			t.Fatalf("read-your-writes violated: wrote %d, read %d", i, res.U)
		}
	}
	stop()
}

func TestExecuteAllAggregates(t *testing.T) {
	t.Parallel()
	const parts = 4
	rt := newTestRuntime(t, parts)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()

	var stops []func()
	for loc := 1; loc < parts; loc++ {
		stops = append(stops, startServer(t, rt, loc))
	}

	// Insert 100 keys spread over partitions.
	for k := uint64(0); k < 100; k++ {
		res := t0.ExecuteSync(k, opPut, Args{U: [4]uint64{k}})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	// Broadcast count and sum across partitions.
	total := t0.ExecuteAll(opCount, Args{}, func(rs []Result) Result {
		var sum uint64
		for _, r := range rs {
			sum += r.U
		}
		return Result{U: sum}
	})
	if total.U != 100 {
		t.Fatalf("broadcast count = %d, want 100", total.U)
	}
	for _, stop := range stops {
		stop()
	}
}

func TestExecuteLocalRunsOnCaller(t *testing.T) {
	t.Parallel()
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
	defer t1.Unregister()

	key := uint64(0)
	for rt.PartitionForKey(key).ID() != 1 {
		key++
	}
	// Seed via t1 (local to partition 1).
	if res := t1.ExecuteSync(key, opPut, Args{U: [4]uint64{11}}); res.Err != nil {
		t.Fatal(res.Err)
	}
	// ExecuteLocal from t0 must return without any remote send and still
	// see partition 1's shard.
	res := t0.ExecuteLocal(key, opGet, Args{})
	if res.Err != nil || res.U != 11 {
		t.Fatalf("ExecuteLocal get = (%d, %v), want (11, nil)", res.U, res.Err)
	}
	if m := rt.Metrics().Totals; m.RemoteSends != 0 {
		t.Fatalf("RemoteSends = %d, want 0", m.RemoteSends)
	}
}

func TestRegisterBalancesLocalities(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 4)
	var threads []*Thread
	for i := 0; i < 8; i++ {
		th, err := rt.Register()
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
	}
	for i := 0; i < 4; i++ {
		if w := rt.Partition(i).Workers(); w != 2 {
			t.Errorf("partition %d has %d workers, want 2", i, w)
		}
	}
	for _, th := range threads {
		th.Unregister()
	}
}

func TestRegisterAtValidatesLocality(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	if _, err := rt.RegisterAt(-1); err == nil {
		t.Error("RegisterAt(-1) succeeded")
	}
	if _, err := rt.RegisterAt(2); err == nil {
		t.Error("RegisterAt(2) succeeded for 2-partition runtime")
	}
}

func TestMaxThreadsEnforced(t *testing.T) {
	t.Parallel()
	rt, err := New(Config{Partitions: 1, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := rt.Register()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := rt.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(); !errors.Is(err, ErrTooManyThreads) {
		t.Fatalf("third Register error = %v, want ErrTooManyThreads", err)
	}
	t1.Unregister()
	// Slot freed: registration works again, reusing the thread id.
	t3, err := rt.Register()
	if err != nil {
		t.Fatalf("Register after Unregister: %v", err)
	}
	t3.Unregister()
	t2.Unregister()
}

func TestThreadIDReuseKeepsRingConsistent(t *testing.T) {
	t.Parallel()
	// Regression test: the send cursor lives in the ring, so a reused
	// thread id resumes exactly where its predecessor stopped and the
	// receive cursor stays aligned.
	rt := newTestRuntime(t, 2)
	stop := startServer(t, rt, 1)
	key := uint64(0)
	for rt.PartitionForKey(key).ID() != 1 {
		key++
	}
	// Send a non-multiple of ring depth so the cursor parks mid-ring,
	// then unregister/re-register and keep going.
	for round := 0; round < 3; round++ {
		t0, err := rt.RegisterAt(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < DefaultRingDepth+3; i++ {
			if res := t0.ExecuteSync(key, opAdd, Args{U: [4]uint64{1}}); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		t0.Unregister()
	}
	t2, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	res := t2.ExecuteSync(key, opGet, Args{})
	if want := uint64(3 * (DefaultRingDepth + 3)); res.U != want {
		t.Fatalf("value = %d, want %d", res.U, want)
	}
	t2.Unregister()
	stop()
}

func TestCloseLifecycle(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 1)
	th, err := rt.Register()
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err == nil {
		t.Fatal("Close succeeded with a live thread")
	}
	th.Unregister()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Close error = %v, want ErrClosed", err)
	}
	if err := rt.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close error = %v, want ErrClosed", err)
	}
}

func TestUnregisterIdempotent(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 1)
	th, err := rt.Register()
	if err != nil {
		t.Fatal(err)
	}
	th.Unregister()
	th.Unregister() // must not panic or double-free the thread id
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDelegatedPanicPropagatesToAwaiter(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	stop := startServer(t, rt, 1)
	defer stop()

	key := uint64(0)
	for rt.PartitionForKey(key).ID() != 1 {
		key++
	}
	panicky := func(p *Partition, key uint64, args *Args) Result {
		panic("boom")
	}
	defer func() {
		rec := recover()
		if rec == nil {
			t.Error("panic in delegated op not re-raised at awaiter")
		} else if fmt.Sprint(rec) != "boom" {
			t.Errorf("recovered %v, want boom", rec)
		}
	}()
	t0.ExecuteSync(key, panicky, Args{})
}

func TestResultErrorsPassThrough(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 1)
	th, err := rt.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()
	res := th.ExecuteSync(1, opGet, Args{})
	if res.Err == nil {
		t.Fatal("get of missing key returned no error")
	}
}

func TestReferenceArgsAndResults(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
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
	type payload struct{ s string }
	echo := func(p *Partition, key uint64, args *Args) Result {
		in := args.P.(*payload)
		return Result{P: &payload{s: in.s + "-echoed"}}
	}
	res := t0.ExecuteSync(key, echo, Args{P: &payload{s: "hello"}})
	if got := res.P.(*payload).s; got != "hello-echoed" {
		t.Fatalf("P result = %q", got)
	}
	stop()
}

func TestMix64Distribution(t *testing.T) {
	t.Parallel()
	// Sequential keys must spread near-uniformly across partitions.
	rt := newTestRuntime(t, 4)
	counts := make([]int, 4)
	const n = 40000
	for k := uint64(0); k < n; k++ {
		counts[rt.PartitionForKey(k).ID()]++
	}
	for p, c := range counts {
		if c < n/4-n/40 || c > n/4+n/40 {
			t.Errorf("partition %d received %d of %d keys (expected ~%d)", p, c, n, n/4)
		}
	}
}

func TestIdentityHashPreservesLocality(t *testing.T) {
	t.Parallel()
	rt, err := New(Config{
		Partitions:    4,
		NamespaceSize: 4000,
		Hash:          IdentityHash,
		Init:          newCounterInit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent keys within one range share a partition.
	if rt.PartitionForKey(10).ID() != rt.PartitionForKey(11).ID() {
		t.Error("identity hash split adjacent keys")
	}
	if rt.PartitionForKey(0).ID() != 0 || rt.PartitionForKey(3999).ID() != 3 {
		t.Error("identity hash range mapping wrong")
	}
}

func TestManyThreadsStress(t *testing.T) {
	t.Parallel()
	const (
		parts   = 4
		perLoc  = 2
		keys    = 256
		opsEach = 300
	)
	rt := newTestRuntime(t, parts)
	var wg sync.WaitGroup
	var total atomic.Uint64
	for loc := 0; loc < parts; loc++ {
		for w := 0; w < perLoc; w++ {
			wg.Add(1)
			go func(loc, w int) {
				defer wg.Done()
				th, err := rt.RegisterAt(loc)
				if err != nil {
					t.Error(err)
					return
				}
				defer th.Unregister()
				rng := uint64(loc*31 + w*17 + 1)
				for i := 0; i < opsEach; i++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					key := rng % keys
					res := th.ExecuteSync(key, opAdd, Args{U: [4]uint64{1}})
					if res.Err != nil {
						t.Error(res.Err)
						return
					}
					total.Add(1)
				}
			}(loc, w)
		}
	}
	wg.Wait()
	if total.Load() != parts*perLoc*opsEach {
		t.Fatalf("completed %d ops, want %d", total.Load(), parts*perLoc*opsEach)
	}
	// Sum over all shards must equal the number of adds.
	var sum uint64
	for i := 0; i < parts; i++ {
		s := rt.Partition(i).Data().(*counterShard)
		s.mu.Lock()
		for _, v := range s.m {
			sum += v
		}
		s.mu.Unlock()
	}
	if sum != parts*perLoc*opsEach {
		t.Fatalf("shard sum = %d, want %d", sum, parts*perLoc*opsEach)
	}
}

// TestRegisterChurnKeepsBudget hammers Register/Unregister from concurrent
// goroutines and then verifies the full thread budget is still available —
// the registration path must release every claim it makes, even under
// contention (the rollback added for partial registration failures must not
// eat slots on the success path either).
func TestRegisterChurnKeepsBudget(t *testing.T) {
	t.Parallel()
	const maxThreads = 8
	rt, err := New(Config{Partitions: 2, MaxThreads: maxThreads})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				th, err := rt.Register()
				if err != nil {
					// Transient exhaustion is fine under churn; a leak is
					// caught by the full-budget check below.
					continue
				}
				th.Unregister()
			}
		}()
	}
	wg.Wait()
	// Every slot must still be claimable.
	threads := make([]*Thread, 0, maxThreads)
	for i := 0; i < maxThreads; i++ {
		th, err := rt.Register()
		if err != nil {
			t.Fatalf("slot %d unavailable after churn: %v", i, err)
		}
		threads = append(threads, th)
	}
	for _, th := range threads {
		th.Unregister()
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}
