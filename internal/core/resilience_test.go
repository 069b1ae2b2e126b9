package core

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dps/internal/chaos"
)

// The resilience suite proves the tentpole property end to end: remote
// delegation survives link loss and peer restarts with unchanged
// completion semantics — no lost completions, no duplicated side
// effects.

const codeIncr uint16 = 4

// remoteIncr appends one byte to the key's value, so len(m[key]) counts
// exactly how many times the op executed — the duplicate detector.
func remoteIncr(p *Partition, key uint64, a *Args) Result {
	s := lockKV(p)
	defer s.mu.Unlock()
	s.m[key] = append(s.m[key], 1)
	return Result{U: uint64(len(s.m[key]))}
}

// TestRemotePeerRestartConvergence is the kill/restart storm: a scripted
// chaos.Storm stops and rebinds the PeerServer's listener while client
// threads hammer the remote partitions with unique-key increments. After
// the storm, every completion is audited against the server's state:
//
//   - success  → the increment applied exactly once (lost if 0, dup if >1)
//   - ErrTimeout → at most once (the burst may or may not have landed)
//   - ErrPeerDown → exactly zero times (the burst was never delivered)
func TestRemotePeerRestartConvergence(t *testing.T) {
	server, err := New(Config{Partitions: rtParts, Hash: rtHash, Init: mapInit})
	if err != nil {
		t.Fatal(err)
	}
	registerTestOps(t, server)
	if err := server.RegisterOp(codeIncr, remoteIncr); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := server.NewPeerServer(ln)
	if err != nil {
		t.Fatal(err)
	}
	go ps.Serve()
	addr := ps.Addr().String()
	t.Cleanup(func() {
		ps.Close()
		server.Shutdown(time.Second)
	})

	client, err := New(Config{
		Partitions: rtParts,
		Hash:       rtHash,
		Init:       mapInit,
		Peers: []Peer{{
			Addr:  addr,
			Parts: []int{2, 3},
			// Generous budget: ops issued mid-darkness must survive a
			// full down window plus redial backoff.
			Timeout: 3 * time.Second,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerTestOps(t, client)
	if err := client.RegisterOp(codeIncr, remoteIncr); err != nil {
		t.Fatal(err)
	}
	const workers = 2
	ths := make([]*Thread, workers)
	for i := range ths {
		if ths[i], err = client.Register(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { client.Shutdown(3 * time.Second) })

	storm := chaos.NewStorm(
		chaos.StormConfig{
			Seed:   42,
			Cycles: 3,
			Up:     70 * time.Millisecond,
			Down:   50 * time.Millisecond,
			Jitter: 20 * time.Millisecond,
		},
		func() error { return ps.Stop() },
		func() error {
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				return err
			}
			if err := ps.Rebind(ln); err != nil {
				return err
			}
			go ps.Serve()
			return nil
		},
	)

	type outcome struct {
		key uint64
		err error
	}
	results := make([][]outcome, workers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, th *Thread) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Unique per (worker, i); lands on remote partition 2 or 3.
				key := uint64(4*(w*1_000_000+i) + 2 + i%2)
				res := th.ExecuteSync(key, remoteIncr, Args{})
				results[w] = append(results[w], outcome{key, res.Err})
			}
		}(w, ths[w])
	}

	go storm.Run()
	storm.Wait()
	close(stop)
	wg.Wait()

	// The storm always restarts the target, so the link must recover:
	// one final op per thread proves it end to end.
	for _, th := range ths {
		if res := th.ExecuteSync(2, remoteLen, Args{}); res.Err != nil {
			t.Fatalf("post-storm op: %v", res.Err)
		}
	}

	// Audit every completion against the server's actual state.
	audit := make(map[uint64]*Thread)
	for _, part := range []int{2, 3} {
		ath, err := server.RegisterAt(part)
		if err != nil {
			t.Fatal(err)
		}
		defer ath.Unregister()
		audit[uint64(part)] = ath
	}
	var ok, timeouts, peerDowns int
	for w := range results {
		for _, o := range results[w] {
			res := audit[o.key%rtParts].ExecuteSync(o.key, remoteGet, Args{})
			if res.Err != nil {
				t.Fatalf("audit key %d: %v", o.key, res.Err)
			}
			applied := 0
			if res.U == 1 {
				applied = len(res.P.([]byte))
			}
			switch {
			case o.err == nil:
				ok++
				if applied != 1 {
					t.Errorf("key %d: completed OK but applied %d times", o.key, applied)
				}
			case errors.Is(o.err, ErrTimeout):
				timeouts++
				if applied > 1 {
					t.Errorf("key %d: timed out but applied %d times", o.key, applied)
				}
			case errors.Is(o.err, ErrPeerDown):
				peerDowns++
				if applied != 0 {
					t.Errorf("key %d: reported never-delivered but applied %d times", o.key, applied)
				}
			default:
				t.Errorf("key %d: unexpected error class %v", o.key, o.err)
			}
		}
	}
	if ok == 0 {
		t.Fatal("no op completed successfully under the storm")
	}
	if c := storm.Counts(); c.Kills != 3 || c.Restarts != 3 {
		t.Fatalf("storm ran %d kills / %d restarts, want 3/3", c.Kills, c.Restarts)
	}
	pm := client.PeerStats(0)
	if pm.Reconnects == 0 {
		t.Errorf("no reconnect recorded across 3 restarts: %+v", pm)
	}
	t.Logf("storm audit: %d ok, %d timeouts, %d peer-downs; retries=%d reconnects=%d replays(server)=%d",
		ok, timeouts, peerDowns, pm.Retries, pm.Reconnects, server.Metrics().Totals.DedupReplays)
}
