package ring

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// payload is a self-padded test payload: Slot[payload] must be exactly one
// stride, the invariant consumer packages assert at compile time.
type payload struct {
	seq uint64
	val uint64
	_   [104]byte
}

const _ = -(unsafe.Sizeof(Slot[payload]{}) % Stride)

func TestSlotOwnershipProtocol(t *testing.T) {
	t.Parallel()
	var s Slot[payload]
	if s.Pending() {
		t.Fatal("zero slot is server-owned")
	}
	s.Payload().val = 7
	s.Publish()
	if !s.Pending() {
		t.Fatal("published slot not pending")
	}
	if got := s.Payload().val; got != 7 {
		t.Fatalf("payload = %d, want 7", got)
	}
	s.Payload().val = 8 // response
	s.Release()
	if s.Pending() {
		t.Fatal("released slot still pending")
	}
	if got := s.Payload().val; got != 8 {
		t.Fatalf("response = %d, want 8", got)
	}
}

// TestWraparoundDepthOne drives a depth-1 ring through many send/serve
// cycles: both cursors must wrap in lockstep and every message must be seen
// exactly once, in order.
func TestWraparoundDepthOne(t *testing.T) {
	t.Parallel()
	r := New[payload](1)
	var got []uint64
	for i := uint64(0); i < 100; i++ {
		s := r.SendSlot()
		if s.Pending() {
			t.Fatalf("iteration %d: depth-1 ring full before serve", i)
		}
		s.Payload().seq = i
		r.AdvanceSend()
		s.Publish()

		if !r.TryClaim() {
			t.Fatal("claim unavailable with no contention")
		}
		n := r.Drain(DefaultBatch, func(s *Slot[payload]) int {
			got = append(got, s.Payload().seq)
			s.Release()
			return 1
		})
		r.Unclaim()
		if n != 1 {
			t.Fatalf("iteration %d: drained %d, want 1", i, n)
		}
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("message %d served out of order: got seq %d", i, v)
		}
	}
}

// TestSendSeesRingFull checks the toggle-as-fullness rule: with depth d and
// no server, exactly d sends succeed and the next SendSlot is pending.
func TestSendSeesRingFull(t *testing.T) {
	t.Parallel()
	const depth = 4
	r := New[payload](depth)
	for i := 0; i < depth; i++ {
		s := r.SendSlot()
		if s.Pending() {
			t.Fatalf("ring full after %d of %d sends", i, depth)
		}
		r.AdvanceSend()
		s.Publish()
	}
	if !r.SendSlot().Pending() {
		t.Fatal("ring not full after depth sends")
	}
	if got := r.Occupancy(); got != depth {
		t.Fatalf("occupancy = %d, want %d", got, depth)
	}
}

// TestSentCountsBackFromCursor: Sent(i) is the slot i sends before the
// newest, across the wrap of the send cursor.
func TestSentCountsBackFromCursor(t *testing.T) {
	t.Parallel()
	const depth = 4
	r := New[payload](depth)
	for n := 1; n <= 2*depth; n++ {
		r.SendSlot().Payload().seq = uint64(n)
		r.AdvanceSend()
		for i := 0; i < min(n, depth); i++ {
			if got := r.Sent(i).Payload().seq; got != uint64(n-i) {
				t.Fatalf("after %d sends: Sent(%d) carries send %d, want %d", n, i, got, n-i)
			}
		}
	}
}

// TestDrainBatchBound: Drain must stop at the batch bound and resume where
// it left off on the next claim.
func TestDrainBatchBound(t *testing.T) {
	t.Parallel()
	r := New[payload](8)
	for i := uint64(0); i < 5; i++ {
		s := r.SendSlot()
		s.Payload().seq = i
		r.AdvanceSend()
		s.Publish()
	}
	var got []uint64
	serve := func(s *Slot[payload]) int {
		got = append(got, s.Payload().seq)
		s.Release()
		return 1
	}
	if !r.TryClaim() {
		t.Fatal("claim failed")
	}
	if n := r.Drain(3, serve); n != 3 {
		t.Fatalf("first drain served %d, want 3", n)
	}
	r.Unclaim()
	if !r.TryClaim() {
		t.Fatal("re-claim failed")
	}
	if n := r.Drain(3, serve); n != 2 {
		t.Fatalf("second drain served %d, want 2", n)
	}
	r.Unclaim()
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("FIFO violated at %d: seq %d", i, v)
		}
	}
}

// TestClaimMutualExclusion exercises the claim token as a lock under the
// race detector: concurrent claimants increment a plain (non-atomic)
// counter, which is only race-free if Claim/Unclaim provide mutual
// exclusion and happens-before.
func TestClaimMutualExclusion(t *testing.T) {
	t.Parallel()
	r := New[payload](1)
	const (
		goroutines = 8
		rounds     = 500
	)
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r.Claim()
				counter++
				r.Unclaim()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*rounds {
		t.Fatalf("counter = %d, want %d (claim token not exclusive)", counter, goroutines*rounds)
	}
}

// TestTryClaimSingleWinner: with the token held, TryClaim must fail.
func TestTryClaimSingleWinner(t *testing.T) {
	t.Parallel()
	r := New[payload](1)
	if !r.TryClaim() {
		t.Fatal("first TryClaim failed")
	}
	if r.TryClaim() {
		t.Fatal("second TryClaim succeeded while held")
	}
	r.Unclaim()
	if !r.TryClaim() {
		t.Fatal("TryClaim failed after Unclaim")
	}
	r.Unclaim()
}

// TestConcurrentSendServe pushes messages through a small ring from a
// sender goroutine while the main goroutine serves, under -race: the
// payload handoff in both directions must be fully synchronized by the
// toggle protocol.
func TestConcurrentSendServe(t *testing.T) {
	t.Parallel()
	const n = 2000
	r := New[payload](4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); i < n; i++ {
			for {
				s := r.SendSlot()
				if !s.Pending() {
					s.Payload().seq = i
					s.Payload().val = i * 3
					r.AdvanceSend()
					s.Publish()
					break
				}
				runtime.Gosched()
			}
		}
	}()
	var served uint64
	var sum uint64
	for served < n {
		if !r.TryClaim() {
			runtime.Gosched()
			continue
		}
		if r.Drain(DefaultBatch, func(s *Slot[payload]) int {
			sum += s.Payload().val
			served++
			s.Release()
			return 1
		}) == 0 {
			runtime.Gosched()
		}
		r.Unclaim()
	}
	<-done
	want := uint64(0)
	for i := uint64(0); i < n; i++ {
		want += i * 3
	}
	if sum != want {
		t.Fatalf("payload sum = %d, want %d", sum, want)
	}
}

// TestClaimYieldsUnderOneProc: on one P, a server waiting in Claim must
// yield, or the token's holder cannot run to Unclaim until async preemption
// (~10 ms) takes the CPU from the waiter. Two claimers hand the token back
// and forth n times, each holding it across a yield so the other finds it
// taken; the whole exchange stays well below n × that quantum.
func TestClaimYieldsUnderOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := New[payload](1)
	const n = 200
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				r.Claim()
				runtime.Gosched() // let the other claimer find the token held
				r.Unclaim()
			}
		}()
	}
	wg.Wait()
	if d := time.Since(start); d > n*2*time.Millisecond {
		t.Fatalf("%d contended claims took %v on one P: a waiting claimer does not yield", 2*n, d)
	}
}
