package dps_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dps"
)

// shard is a mutex-guarded map used as the per-partition structure.
type shard struct {
	mu sync.Mutex
	m  map[uint64]string
}

func TestPublicAPISmoke(t *testing.T) {
	t.Parallel()
	rt, err := dps.New(dps.Config{
		Partitions: 2,
		Init:       func(p *dps.Partition) any { return &shard{m: make(map[uint64]string)} },
	})
	if err != nil {
		t.Fatal(err)
	}
	put := func(p *dps.Partition, key uint64, args *dps.Args) dps.Result {
		s := p.Data().(*shard)
		s.mu.Lock()
		s.m[key] = args.P.(string)
		s.mu.Unlock()
		return dps.Result{}
	}
	get := func(p *dps.Partition, key uint64, args *dps.Args) dps.Result {
		s := p.Data().(*shard)
		s.mu.Lock()
		v, ok := s.m[key]
		s.mu.Unlock()
		return dps.Result{P: v, U: boolToU(ok)}
	}

	var wg sync.WaitGroup
	ths := make([]*dps.Thread, 2)
	for loc := range ths {
		th, err := rt.RegisterAt(loc)
		if err != nil {
			t.Fatal(err)
		}
		ths[loc] = th
	}
	for loc, th := range ths {
		wg.Add(1)
		go func(loc int, th *dps.Thread) {
			defer wg.Done()
			defer th.Unregister()
			base := uint64(loc * 1000)
			for k := base; k < base+100; k++ {
				th.ExecuteSync(k, put, dps.Args{P: "v"})
				res := th.ExecuteSync(k, get, dps.Args{})
				if res.U != 1 || res.P.(string) != "v" {
					t.Errorf("key %d: got (%v,%v)", k, res.U, res.P)
					return
				}
			}
		}(loc, th)
	}
	wg.Wait()
	snap := rt.Metrics()
	if m := snap.Totals; m.LocalExecs+m.RemoteSends == 0 {
		t.Fatal("no operations recorded")
	}
	if len(snap.PerPartition) != 2 {
		t.Fatalf("PerPartition has %d entries, want 2", len(snap.PerPartition))
	}
	if snap.Totals.RemoteSends > 0 && snap.Latency.SyncDelegation.Count == 0 {
		t.Fatal("remote sends recorded but sync-delegation histogram empty")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRobustnessSurface pins the hardening API re-exported through the
// facade: ErrTimeout under Config.OpTimeout, OnPanic/PanicInfo in Config, and
// Shutdown's report — all reachable without importing internal/core.
func TestRobustnessSurface(t *testing.T) {
	t.Parallel()
	got := make(chan dps.PanicInfo, 1)
	rt, err := dps.New(dps.Config{
		Partitions: 2,
		OpTimeout:  10 * time.Millisecond,
		OnPanic:    func(info dps.PanicInfo) { got <- info },
		Init:       func(p *dps.Partition) any { return &shard{m: make(map[uint64]string)} },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The wire tier's never-delivered sentinel is part of the surface
	// and must stay distinct from the local lifecycle errors.
	if errors.Is(dps.ErrPeerDown, dps.ErrClosed) || errors.Is(dps.ErrPeerDown, dps.ErrTimeout) {
		t.Fatal("dps.ErrPeerDown must be distinct from ErrClosed/ErrTimeout")
	}

	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := rt.RegisterAt(1) // populates locality 1 but never serves
	if err != nil {
		t.Fatal(err)
	}

	boom := func(p *dps.Partition, key uint64, args *dps.Args) dps.Result { panic("boom") }
	key := uint64(0)
	for rt.PartitionForKey(key).ID() != 1 {
		key++
	}
	// Locality 1 never serves, so the deadline must expire.
	if res := t0.ExecuteSync(key, boom, dps.Args{}); !errors.Is(res.Err, dps.ErrTimeout) {
		t.Fatalf("ExecuteSync err = %v, want dps.ErrTimeout", res.Err)
	}
	// Unregister blocks until the abandoned slot is rescued and reaped; the
	// op's panic, which no completion observes any more, goes to OnPanic.
	t0.Unregister()
	t1.Unregister()
	select {
	case info := <-got:
		if info.Value != "boom" || info.Async || info.Key != key {
			t.Fatalf("PanicInfo = %+v", info)
		}
	default:
		t.Fatal("the abandoned op's panic never reached OnPanic")
	}

	rep, err := rt.Shutdown(5 * time.Second)
	if err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	var _ dps.ShutdownReport = rep
	if rep.LiveThreads != 0 {
		t.Fatalf("LiveThreads = %d, want 0", rep.LiveThreads)
	}
	if _, err := rt.Shutdown(time.Second); !errors.Is(err, dps.ErrClosed) {
		t.Fatalf("second Shutdown err = %v, want dps.ErrClosed", err)
	}
}

func boolToU(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestHashHelpers(t *testing.T) {
	t.Parallel()
	if dps.HashBytes([]byte("hello")) != dps.HashString("hello") {
		t.Error("HashBytes and HashString disagree")
	}
	if dps.HashString("a") == dps.HashString("b") {
		t.Error("trivial FNV collision")
	}
	if dps.Mix64(1) == dps.Mix64(2) {
		t.Error("Mix64 collision on adjacent inputs")
	}
	if dps.IdentityHash(42) != 42 {
		t.Error("IdentityHash not identity")
	}
	// FNV-1a known-answer test.
	if got := dps.HashString(""); got != 14695981039346656037 {
		t.Errorf("FNV offset basis = %d", got)
	}
}
