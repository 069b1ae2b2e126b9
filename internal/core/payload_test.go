package core

import (
	"testing"
)

// Tests for byte payloads carried by reference in Args.P: a []byte crosses a
// ring to an attended locality and reaches the operation intact, alone, in a
// shared burst, and fire-and-forget up to Drain.

// opPayloadSum folds the operation's byte payload (a []byte, or nil) into a
// checksum without retaining the bytes.
func opPayloadSum(p *Partition, key uint64, args *Args) Result {
	b, _ := args.P.([]byte)
	return Result{U: payloadChecksum(b)}
}

// opPayloadAdd adds the payload's checksum to the key's counter and returns
// the checksum: a key applied twice would hold twice its checksum.
func opPayloadAdd(p *Partition, key uint64, args *Args) Result {
	b, _ := args.P.([]byte)
	sum := payloadChecksum(b)
	s := p.Data().(*counterShard)
	s.mu.Lock()
	s.m[key] += sum
	s.mu.Unlock()
	return Result{U: sum}
}

func payloadChecksum(b []byte) uint64 {
	var sum uint64 = 17
	for _, c := range b {
		sum = sum*131 + uint64(c)
	}
	return sum
}

// payloadOf returns a fresh n-byte payload whose bytes depend on seed.
func payloadOf(n, seed int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(seed + j)
	}
	return b
}

// TestPayloadRoundTrip sends []byte payloads from locality 0 to partition 1,
// whose server runs a Serve loop, so every operation crosses the ring.
func TestPayloadRoundTrip(t *testing.T) {
	t.Parallel()
	setup := func(t *testing.T) (*Runtime, *Thread) {
		rt := twoPartRuntime(t, DefaultRingDepth)
		t.Cleanup(startServer(t, rt, 1))
		th, err := rt.RegisterAt(0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(th.Unregister)
		return rt, th
	}
	// applied checks that key 1000+i holds want[i]: each op applied once.
	applied := func(t *testing.T, rt *Runtime, want []uint64) {
		s := rt.Partition(1).Data().(*counterShard)
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, w := range want {
			if got := s.m[1000+uint64(i)]; got != w {
				t.Errorf("key %d holds %d, want %d (applied exactly once)", 1000+i, got, w)
			}
		}
	}

	// Lengths from empty to 4 KiB, each synchronous send checked by its
	// checksum.
	t.Run("sync crosses the ring", func(t *testing.T) {
		rt, th := setup(t)
		sizes := []int{0, 1, 128, 1024, 2048, 4096}
		const rounds = 5 * 64
		for i := 0; i < rounds; i++ {
			payload := payloadOf(sizes[i%len(sizes)], i)
			want := payloadChecksum(payload)
			res := th.ExecuteSync(1000+uint64(i)%7, opPayloadSum, Args{P: payload})
			if res.Err != nil {
				t.Fatalf("op %d: %v", i, res.Err)
			}
			if res.U != want {
				t.Fatalf("op %d (%d bytes): checksum %d, want %d", i, len(payload), res.U, want)
			}
		}
		if m := rt.Metrics().Totals; m.RemoteSends != rounds || m.UnattendedExecs != 0 {
			t.Errorf("RemoteSends = %d, UnattendedExecs = %d, want %d and 0", m.RemoteSends, m.UnattendedExecs, rounds)
		}
	})

	// A four-op burst of payloads: all four share one slot, and each is
	// applied exactly once with its bytes intact.
	t.Run("burst meets the bound", func(t *testing.T) {
		rt, th := setup(t)
		var cs [burstSize]Completion
		want := make([]uint64, burstSize)
		for i := range cs {
			payload := payloadOf(32, i*32)
			want[i] = payloadChecksum(payload)
			th.ExecuteInto(&cs[i], 1000+uint64(i), opPayloadAdd, Args{P: payload})
		}
		if cs[0].slot == nil || cs[0].slot != cs[burstSize-1].slot {
			t.Fatal("the four operations did not share one burst")
		}
		for i := range cs {
			if res := cs[i].Result(); res.Err != nil || res.U != want[i] {
				t.Errorf("op %d: %+v, want checksum %d", i, res, want[i])
			}
		}
		applied(t, rt, want)
	})

	// Fire-and-forget sends of fresh slices: Drain is the barrier after
	// which each has been applied once, intact.
	t.Run("async then drain", func(t *testing.T) {
		rt, th := setup(t)
		const n = 64
		want := make([]uint64, n)
		for i := range want {
			payload := payloadOf(64*i, i)
			want[i] = payloadChecksum(payload)
			th.ExecuteAsync(1000+uint64(i), opPayloadAdd, Args{P: payload})
		}
		th.Drain()
		applied(t, rt, want)
		if m := rt.Metrics().Totals; m.AsyncSends != n || m.UnattendedExecs != 0 {
			t.Errorf("AsyncSends = %d, UnattendedExecs = %d, want %d and 0", m.AsyncSends, m.UnattendedExecs, n)
		}
	})
}

// BenchmarkDelegationPayload measures a synchronous delegation carrying a
// 1 KiB []byte payload, boxed into Args.P, toward a locality whose thread
// runs a Serve loop, so every operation crosses the ring (remote/op 1) and
// none runs inline on its sender (inline/op 0).
func BenchmarkDelegationPayload(b *testing.B) {
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	rt := twoPartRuntime(b, DefaultRingDepth)
	defer startServer(b, rt, 1)()
	th, err := rt.RegisterAt(0)
	if err != nil {
		b.Fatal(err)
	}
	defer th.Unregister()
	for i := uint64(0); i < 100; i++ {
		th.ExecuteSync(1000+i%7, opPayloadSum, Args{P: payload})
	}
	b.SetBytes(int64(len(payload)))
	report := reportPaths(b, rt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.ExecuteSync(1000+uint64(i)%7, opPayloadSum, Args{P: payload})
	}
	report()
}
