package ffwd

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// mapShard is the per-server structure; servers are serial so no locking.
type mapShard map[uint64]uint64

func newSystem(t testing.TB, servers int) *System {
	t.Helper()
	sys, err := New(Config{
		Servers:   servers,
		ShardInit: func(s int) any { return mapShard{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func opPut(shard any, key uint64, args *Args) Result {
	shard.(mapShard)[key] = args.U[0]
	return Result{U: args.U[0]}
}

func opGet(shard any, key uint64, args *Args) Result {
	v, ok := shard.(mapShard)[key]
	if !ok {
		return Result{Err: errors.New("not found")}
	}
	return Result{U: v}
}

func opAdd(shard any, key uint64, args *Args) Result {
	shard.(mapShard)[key] += args.U[0]
	return Result{U: shard.(mapShard)[key]}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	for _, servers := range []int{0, -1, 5} {
		if _, err := New(Config{Servers: servers}); err == nil {
			t.Errorf("Servers=%d accepted", servers)
		}
	}
	if _, err := New(Config{Servers: 1, MaxClients: -1}); err == nil {
		t.Error("negative MaxClients accepted")
	}
	if _, err := New(Config{Servers: 1, Batch: -1}); err == nil {
		t.Error("negative Batch accepted")
	}
}

func TestSingleServerRoundTrip(t *testing.T) {
	t.Parallel()
	sys := newSystem(t, 1)
	defer sys.Close()
	c, err := sys.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Unregister()

	if res := c.Call(7, opPut, Args{U: [4]uint64{42}}); res.U != 42 {
		t.Fatalf("put = %d, want 42", res.U)
	}
	if res := c.Call(7, opGet, Args{}); res.Err != nil || res.U != 42 {
		t.Fatalf("get = (%d, %v)", res.U, res.Err)
	}
	if res := c.Call(8, opGet, Args{}); res.Err == nil {
		t.Fatal("get of missing key succeeded")
	}
}

func TestKeysRouteToOwningServer(t *testing.T) {
	t.Parallel()
	sys := newSystem(t, 4)
	defer sys.Close()
	c, err := sys.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Unregister()

	for key := uint64(0); key < 16; key++ {
		c.Call(key, opPut, Args{U: [4]uint64{key * 10}})
	}
	// Each key must live in exactly the shard of key % 4. Shards are
	// quiescent after Call returns (server wrote before clearing toggle),
	// but reading them concurrently with servers is racy, so check via
	// delegated gets plus shard-count via a delegated op.
	for key := uint64(0); key < 16; key++ {
		if got := c.Call(key, opGet, Args{}); got.U != key*10 {
			t.Errorf("key %d = %d, want %d", key, got.U, key*10)
		}
	}
	count := func(shard any, key uint64, args *Args) Result {
		return Result{U: uint64(len(shard.(mapShard)))}
	}
	for s := 0; s < 4; s++ {
		if res := c.CallServer(s, 0, count, Args{}); res.U != 4 {
			t.Errorf("server %d holds %d keys, want 4", s, res.U)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	t.Parallel()
	const clients, iters = 8, 500
	sys := newSystem(t, 2)
	defer sys.Close()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := sys.Register()
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Unregister()
			for j := 0; j < iters; j++ {
				c.Call(uint64(j%16), opAdd, Args{U: [4]uint64{1}})
			}
		}(i)
	}
	wg.Wait()
	// Total across all keys must equal clients*iters.
	c, err := sys.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Unregister()
	var total uint64
	for key := uint64(0); key < 16; key++ {
		res := c.Call(key, opGet, Args{})
		if res.Err != nil {
			t.Fatalf("key %d: %v", key, res.Err)
		}
		total += res.U
	}
	if total != clients*iters {
		t.Fatalf("total = %d, want %d", total, clients*iters)
	}
}

func TestServerSerializesOps(t *testing.T) {
	t.Parallel()
	// With one server, unsynchronized read-modify-write ops must never
	// lose updates — the server serializes them.
	sys := newSystem(t, 1)
	defer sys.Close()
	const clients, iters = 4, 1000
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := sys.Register()
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Unregister()
			for j := 0; j < iters; j++ {
				c.Call(1, opAdd, Args{U: [4]uint64{1}})
			}
		}()
	}
	wg.Wait()
	c, _ := sys.Register()
	defer c.Unregister()
	if res := c.Call(1, opGet, Args{}); res.U != clients*iters {
		t.Fatalf("counter = %d, want %d", res.U, clients*iters)
	}
}

func TestPanicBecomesError(t *testing.T) {
	t.Parallel()
	sys := newSystem(t, 1)
	defer sys.Close()
	c, err := sys.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Unregister()
	boom := func(shard any, key uint64, args *Args) Result { panic("kaboom") }
	res := c.Call(1, boom, Args{})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "kaboom") {
		t.Fatalf("Err = %v, want panic error", res.Err)
	}
	// Server must still be alive.
	if res := c.Call(1, opPut, Args{U: [4]uint64{5}}); res.U != 5 {
		t.Fatal("server dead after op panic")
	}
}

func TestClientIDReuse(t *testing.T) {
	t.Parallel()
	sys, err := New(Config{Servers: 1, MaxClients: 1, ShardInit: func(int) any { return mapShard{} }})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	c1, err := sys.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Register(); err == nil {
		t.Fatal("second Register with MaxClients=1 succeeded")
	}
	c1.Unregister()
	c2, err := sys.Register()
	if err != nil {
		t.Fatal(err)
	}
	c2.Call(0, opPut, Args{U: [4]uint64{1}})
	c2.Unregister()
}

func TestRegisterAfterClose(t *testing.T) {
	t.Parallel()
	sys := newSystem(t, 1)
	sys.Close()
	if _, err := sys.Register(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Close = %v, want ErrClosed", err)
	}
	sys.Close() // idempotent
}

func TestBatchOne(t *testing.T) {
	t.Parallel()
	// Batch=1 publishes each response immediately; behaviour must match.
	sys, err := New(Config{Servers: 1, Batch: 1, ShardInit: func(int) any { return mapShard{} }})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	c, _ := sys.Register()
	defer c.Unregister()
	for i := uint64(0); i < 50; i++ {
		if res := c.Call(i, opPut, Args{U: [4]uint64{i}}); res.U != i {
			t.Fatalf("put %d returned %d", i, res.U)
		}
	}
}

func BenchmarkFFWDRoundTrip(b *testing.B) {
	sys, err := New(Config{Servers: 1, ShardInit: func(int) any { return mapShard{} }})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	c, err := sys.Register()
	if err != nil {
		b.Fatal(err)
	}
	defer c.Unregister()
	nop := func(shard any, key uint64, args *Args) Result { return Result{} }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Call(uint64(i), nop, Args{})
	}
}

// TestCallServerZeroAlloc pins ffwd's request/response round-trip at zero
// heap allocations per call on both sides: the client publishes into its
// preallocated line and busy-waits, and the server's sweep reuses its
// fixed-capacity response batch. Both entry points are pinned: CallServer
// and Call, which routes by key first.
func TestCallServerZeroAlloc(t *testing.T) {
	sys, err := New(Config{Servers: 1, ShardInit: func(int) any { return mapShard{} }})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	c, err := sys.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Unregister()
	nop := func(shard any, key uint64, args *Args) Result { return Result{} }
	// Warm up: fault in the line and scheduler state.
	for i := uint64(0); i < 100; i++ {
		if res := c.CallServer(0, i, nop, Args{}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		c.CallServer(0, 3, nop, Args{})
	}); n != 0 {
		t.Errorf("CallServer allocated %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		c.Call(3, nop, Args{})
	}); n != 0 {
		t.Errorf("Call allocated %.1f objects/op, want 0", n)
	}
}

// TestRegisterCloseRace: Register is serialized with Close under the system
// lock, so a racing Register either completes before the close or reports
// ErrClosed — it never hands out a client on a system whose servers are
// exiting, and it never leaks an id.
func TestRegisterCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		sys, err := New(Config{Servers: 1, MaxClients: 8, ShardInit: func(int) any { return mapShard{} }})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		results := make([]error, 8)
		clients := make([]*Client, 8)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				clients[i], results[i] = sys.Register()
			}(i)
		}
		sys.Close()
		wg.Wait()
		for i, err := range results {
			switch {
			case err == nil:
				// Registered before the close linearized: the handle is
				// real and its id must be releasable.
				clients[i].Unregister()
			case errors.Is(err, ErrClosed):
			default:
				t.Fatalf("round %d: Register = %v, want nil or ErrClosed", round, err)
			}
		}
	}
}

// The two ffwd poll loops — the server's idle sweep and the client's wait
// for its response — must yield: on one P a loop that spins without
// yielding keeps the CPU until async preemption (~10 ms) takes it. Each
// test below runs n hand-offs on one P and bounds them well below n × that
// quantum.

// oneProc runs the rest of the test on a single P.
func oneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestIdleServerYieldsUnderOneProc: with a server idling (no clients), the
// test goroutine yields n times; each yield hands the P to the server,
// whose idle sweep must hand it back.
func TestIdleServerYieldsUnderOneProc(t *testing.T) {
	oneProc(t)
	sys := newSystem(t, 1)
	defer sys.Close()
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		runtime.Gosched()
	}
	if d := time.Since(start); d > n*2*time.Millisecond {
		t.Fatalf("%d yields past an idle server took %v on one P: the server's idle sweep does not yield", n, d)
	}
}

// TestCallYieldsUnderOneProc: n synchronous calls on one P; a client that
// waits for its response without yielding keeps the server from running.
func TestCallYieldsUnderOneProc(t *testing.T) {
	oneProc(t)
	sys := newSystem(t, 1)
	defer sys.Close()
	c, err := sys.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Unregister()
	const n = 200
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		if res := c.Call(i, opPut, Args{U: [4]uint64{i}}); res.U != i {
			t.Fatalf("call %d = %d", i, res.U)
		}
	}
	if d := time.Since(start); d > n*2*time.Millisecond {
		t.Fatalf("%d calls took %v on one P: a waiting client does not yield", n, d)
	}
}
