package dpsds

import (
	"sync"
	"sync/atomic"
	"testing"

	"dps/internal/skiplist"
)

// TestOpsAccounting checks the observability books from the data-structure
// layer: every single-key operation issued through a handle is recorded as
// exactly one local execution, one execution toward an unattended locality
// (a thread parked in its own wait, or a handle already unregistered, leaves
// one) or one remote send, and per-partition counts
// sum to the totals. Only Insert/Lookup/Remove are used — broadcasts (Size,
// Keys) fan out to every partition and would break the 1:1 mapping.
func TestOpsAccounting(t *testing.T) {
	t.Parallel()
	const parts, workers, opsEach = 4, 4, 300
	s, err := NewSet(Config{
		Partitions: parts,
		NewShard:   func() Inner { return skiplist.NewLockFree() },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Register every handle up front so localities are staffed and remote
	// keys delegate instead of hitting the empty-locality inline fallback.
	handles := make([]*Handle, workers)
	for w := range handles {
		h, err := s.RegisterAt(w % parts)
		if err != nil {
			t.Fatal(err)
		}
		handles[w] = h
	}
	var issued atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := handles[w]
			defer h.Unregister()
			for i := 0; i < opsEach; i++ {
				key := uint64(w*10*opsEach + i)
				h.Insert(key, key)
				h.Lookup(key)
				h.Remove(key)
				issued.Add(3)
			}
		}(w)
	}
	wg.Wait()

	snap := s.Runtime().Metrics()
	tot := snap.Totals
	if got := tot.LocalExecs + tot.UnattendedExecs + tot.RemoteSends; got != issued.Load() {
		t.Fatalf("LocalExecs+UnattendedExecs+RemoteSends = %d, want %d issued ops", got, issued.Load())
	}
	var sum uint64
	for _, pm := range snap.PerPartition {
		sum += pm.LocalExecs + pm.UnattendedExecs + pm.RemoteSends
	}
	if sum != issued.Load() {
		t.Fatalf("per-partition LocalExecs+UnattendedExecs+RemoteSends sum = %d, want %d", sum, issued.Load())
	}
	if snap.Latency.SyncDelegation.Count != snap.Totals.RemoteSends {
		t.Fatalf("sync-delegation histogram count = %d, want %d",
			snap.Latency.SyncDelegation.Count, snap.Totals.RemoteSends)
	}
}
