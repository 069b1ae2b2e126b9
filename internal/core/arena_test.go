package core

import (
	"testing"
)

// Tests for the per-locality payload arenas: round-trip integrity through
// an arena buffer, recycling (the pool must refill as operations execute),
// every documented fallback-to-heap condition, and the zero-allocation pin
// on the arena fast path.

// opPayloadSum folds the operation's byte payload (arena buffer, plain
// []byte, or nil — PayloadBytes unwraps all three) into a checksum without
// retaining the bytes, exactly the discipline arena payload consumers must
// follow.
func opPayloadSum(p *Partition, key uint64, args *Args) Result {
	return Result{U: payloadChecksum(PayloadBytes(args.P))}
}

func payloadChecksum(b []byte) uint64 {
	var sum uint64 = 17
	for _, c := range b {
		sum = sum*131 + uint64(c)
	}
	return sum
}

// TestArenaPayloadRoundTrip pushes several pool-sizes' worth of payloads of
// assorted lengths (empty through exactly buffer-capacity) through the
// arena path and checks each checksum. Running 5x the pool size proves the
// serve path releases buffers back to the pool; zero fallbacks proves no
// acquire ever found the pool empty or the payload oversized.
func TestArenaPayloadRoundTrip(t *testing.T) {
	t.Parallel()
	rt := twoPartRuntime(t, DefaultRingDepth)
	stop := startServer(t, rt, 1)
	defer stop()

	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	sizes := []int{0, 1, 7, 100, 1333, DefaultArenaBufBytes}
	const rounds = 5 * DefaultArenaBufs
	for i := 0; i < rounds; i++ {
		n := sizes[i%len(sizes)]
		key := 1000 + uint64(i)%7
		buf := th.AcquirePayload(key, n)
		if buf == nil {
			t.Fatalf("op %d: AcquirePayload(%d bytes) returned nil, want a buffer", i, n)
		}
		if got := len(buf.Bytes()); got != n {
			t.Fatalf("op %d: Bytes() length %d, want %d", i, got, n)
		}
		for j := range buf.Bytes() {
			buf.Bytes()[j] = byte(i + j)
		}
		want := payloadChecksum(buf.Bytes())
		res := th.ExecuteSync(key, opPayloadSum, Args{P: buf})
		if res.Err != nil {
			t.Fatalf("op %d: %v", i, res.Err)
		}
		if res.U != want {
			t.Fatalf("op %d: checksum %d, want %d", i, res.U, want)
		}
	}

	m := rt.Metrics()
	if m.Totals.ArenaAcquires != rounds {
		t.Errorf("ArenaAcquires = %d, want %d", m.Totals.ArenaAcquires, rounds)
	}
	if m.Totals.ArenaFallbacks != 0 {
		t.Errorf("ArenaFallbacks = %d, want 0", m.Totals.ArenaFallbacks)
	}
}

// TestArenaFallbackPaths exercises every condition under which
// AcquirePayload must decline and send the caller to the heap path: local
// destination, no serving worker at the destination, oversized payload,
// and a peer-owned destination, which has no arena at all.
func TestArenaFallbackPaths(t *testing.T) {
	t.Parallel()
	rt := twoPartRuntime(t, DefaultRingDepth)
	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	// Local destination: key 5 lives in the caller's own locality 0, where
	// inline execution would never pass through the serve-side release.
	if b := th.AcquirePayload(5, 64); b != nil {
		t.Error("AcquirePayload for a local key returned a buffer, want nil")
	}

	// No workers: partition 1 has no registered server yet, so a delegated
	// payload could sit in an arena buffer indefinitely.
	if b := th.AcquirePayload(1000, 64); b != nil {
		t.Error("AcquirePayload with no serving worker returned a buffer, want nil")
	}

	stop := startServer(t, rt, 1)
	defer stop()

	// Oversized: larger than a buffer can hold. This is the one counted
	// fallback (the other three are routing decisions, not pool misses).
	if b := th.AcquirePayload(1000, DefaultArenaBufBytes+1); b != nil {
		t.Error("oversized AcquirePayload returned a buffer, want nil")
	}
	if got := rt.Metrics().Totals.ArenaFallbacks; got != 1 {
		t.Errorf("ArenaFallbacks = %d, want 1", got)
	}

	// Peer-owned: the partition's shard lives in another process, whose
	// wire tier takes plain []byte, so this process builds it no arena. The
	// peer is never dialled: nothing is sent.
	rtPeer, err := New(Config{
		Partitions:    2,
		NamespaceSize: 2000,
		Hash:          IdentityHash,
		Init:          newCounterInit(),
		Peers:         []Peer{{Addr: "127.0.0.1:1", Parts: []int{1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rtPeer.Partition(1).arena != nil || rtPeer.Partition(0).arena == nil {
		t.Error("arena built for the peer-owned partition, or missing for the local one")
	}
	thPeer, err := rtPeer.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if b := thPeer.AcquirePayload(1000, 64); b != nil {
		t.Error("AcquirePayload for a peer-owned partition returned a buffer, want nil")
	}
	thPeer.Unregister()
	if err := rtPeer.Close(); err != nil {
		t.Fatal(err)
	}
}

// opPayloadAdd adds the payload's checksum to the key's counter and returns
// the checksum: a key applied twice would hold twice its checksum.
func opPayloadAdd(p *Partition, key uint64, args *Args) Result {
	sum := payloadChecksum(PayloadBytes(args.P))
	s := p.Data().(*counterShard)
	s.mu.Lock()
	s.m[key] += sum
	s.mu.Unlock()
	return Result{U: sum}
}

// TestArenaExhaustionAndRefill runs a destination's arena at its bound, at
// the production pool size (DefaultArenaBufs).
func TestArenaExhaustionAndRefill(t *testing.T) {
	t.Parallel()
	// setup returns a sender at locality 0 and a helper that acquires n
	// buffers toward partition 1, failing the test if the pool runs dry.
	setup := func(t *testing.T) (*Runtime, *Thread, func(n int) []*PayloadBuf) {
		rt := twoPartRuntime(t, DefaultRingDepth)
		stop := startServer(t, rt, 1)
		t.Cleanup(stop)
		th, err := rt.RegisterAt(0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(th.Unregister)
		acquire := func(n int) []*PayloadBuf {
			held := make([]*PayloadBuf, 0, n)
			for i := 0; i < n; i++ {
				b := th.AcquirePayload(1000, 32)
				if b == nil {
					t.Fatalf("acquire %d/%d returned nil", i+1, n)
				}
				held = append(held, b)
			}
			return held
		}
		return rt, th, acquire
	}
	ship := func(t *testing.T, th *Thread, bufs []*PayloadBuf) {
		for i, b := range bufs {
			if res := th.ExecuteSync(1000, opPayloadSum, Args{P: b}); res.Err != nil {
				t.Fatalf("ship %d: %v", i, res.Err)
			}
		}
	}

	// With a whole pool's payloads in flight, the next one falls back to the
	// heap (counted once); once the serve has run them all, the pool is full
	// again.
	t.Run("one past the pool", func(t *testing.T) {
		rt, th, acquire := setup(t)
		held := acquire(DefaultArenaBufs)
		if b := th.AcquirePayload(1000, 32); b != nil {
			t.Fatal("acquire on an exhausted pool returned a buffer, want nil")
		}
		if got := rt.Metrics().Totals.ArenaFallbacks; got != 1 {
			t.Errorf("ArenaFallbacks = %d, want 1", got)
		}
		ship(t, th, held)
		ship(t, th, acquire(DefaultArenaBufs))
	})

	// A four-op burst whose third payload finds the pool empty. The
	// guarantee does not degrade at the bound: that payload rides the same
	// burst on the heap path, and all four ops are applied exactly once with
	// their bytes intact — only ArenaFallbacks shows the difference.
	t.Run("burst meets the bound", func(t *testing.T) {
		rt, th, acquire := setup(t)
		held := acquire(DefaultArenaBufs - 2)
		var cs [burstSize]Completion
		var want [burstSize]uint64
		for i := range cs {
			payload := make([]byte, 32)
			for j := range payload {
				payload[j] = byte(i*32 + j)
			}
			want[i] = payloadChecksum(payload)
			var b *PayloadBuf
			if i < 3 {
				b = th.AcquirePayload(1000, len(payload))
			} else {
				// The pool is still empty; the fourth rides a buffer the
				// test acquired earlier.
				b, held = held[0], held[1:]
			}
			if (b == nil) != (i == 2) {
				t.Fatalf("payload %d: buffer %v, want one for every payload but the third", i, b)
			}
			var arg any = payload // the heap path
			if b != nil {
				copy(b.Bytes(), payload)
				arg = b
			}
			th.ExecuteInto(&cs[i], 1000+uint64(i), opPayloadAdd, Args{P: arg})
		}
		if cs[0].slot == nil || cs[0].slot != cs[burstSize-1].slot {
			t.Fatal("the four operations did not share one burst")
		}
		for i := range cs {
			if res := cs[i].Result(); res.Err != nil || res.U != want[i] {
				t.Errorf("op %d: %+v, want checksum %d", i, res, want[i])
			}
		}
		s := rt.Partition(1).Data().(*counterShard)
		s.mu.Lock()
		for i, w := range want {
			if got := s.m[1000+uint64(i)]; got != w {
				t.Errorf("key %d holds %d, want %d (applied exactly once)", 1000+i, got, w)
			}
		}
		s.mu.Unlock()
		if m := rt.Metrics().Totals; m.ArenaFallbacks != 1 || m.ArenaAcquires != DefaultArenaBufs {
			t.Errorf("ArenaFallbacks = %d, ArenaAcquires = %d, want 1 and %d", m.ArenaFallbacks, m.ArenaAcquires, DefaultArenaBufs)
		}
		ship(t, th, held)
		ship(t, th, acquire(DefaultArenaBufs))
	})
}

// TestArenaPayloadZeroAlloc pins the arena fast path's contract: acquire,
// copy, delegate, execute, release performs zero heap allocations — the
// whole point of carrying payloads by arena-buffer pointer instead of a
// boxed []byte.
func TestArenaPayloadZeroAlloc(t *testing.T) {
	rt := twoPartRuntime(t, DefaultRingDepth)
	stop := startServer(t, rt, 1)
	defer stop()
	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	send := func() {
		buf := th.AcquirePayload(1001, len(payload))
		if buf == nil {
			t.Fatal("AcquirePayload returned nil")
		}
		copy(buf.Bytes(), payload)
		if res := th.ExecuteSync(1001, opPayloadSum, Args{P: buf}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	for i := 0; i < 100; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Errorf("arena payload delegation allocated %.1f objects/op, want 0", allocs)
	}
}
