package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParkerWakeBeforeBlockIsNotLost(t *testing.T) {
	p := NewParker(1)
	var timer *time.Timer
	// Wake lands in the Prepare..Park window: Park must return woken
	// immediately, not after the timeout.
	p.Prepare(0)
	if !p.Wake(0) {
		t.Fatal("Wake saw no armed waiter after Prepare")
	}
	start := time.Now()
	if !p.Park(0, &timer, time.Second) {
		t.Fatal("Park timed out despite a pending wake token")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Park took %v to consume a pending token", d)
	}
}

func TestParkerStaleTokenDrained(t *testing.T) {
	p := NewParker(1)
	var timer *time.Timer
	// A wake with no armed waiter must not leave a token that short-cuts
	// the next park episode... unless it raced the arm, which Prepare's
	// drain resolves.
	if p.Wake(0) {
		t.Fatal("Wake claimed delivery with no armed waiter")
	}
	p.Prepare(0)
	if p.Park(0, &timer, 10*time.Millisecond) {
		t.Fatal("Park woke from a token that predates Prepare")
	}
}

func TestParkerTimeout(t *testing.T) {
	p := NewParker(2)
	var timer *time.Timer
	p.Prepare(1)
	start := time.Now()
	if p.Park(1, &timer, 5*time.Millisecond) {
		t.Fatal("Park reported woken without a Wake")
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("Park returned after %v, before the timeout", d)
	}
	// The timer is reused across parks.
	p.Prepare(1)
	if p.Park(1, &timer, time.Millisecond) {
		t.Fatal("second Park reported woken without a Wake")
	}
}

func TestParkerCancel(t *testing.T) {
	p := NewParker(1)
	p.Prepare(0)
	p.Cancel(0)
	if p.Wake(0) {
		t.Fatal("Wake claimed delivery after Cancel")
	}
}

// TestParkerConcurrentWakeNeverLoses runs the documented protocol in
// lockstep rounds: the waker publishes its condition (seq) and then calls
// Wake; the waiter arms, re-checks the condition, and only then parks. A
// Wake that lands between Prepare's arming and its drain of stale tokens
// loses its token by design — the re-check is what sees that round.
func TestParkerConcurrentWakeNeverLoses(t *testing.T) {
	p := NewParker(1)
	const rounds = 500
	var seq, ack atomic.Int64 // rounds published by the waker, observed by the waiter
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer ack.Store(rounds) // releases the waker on the failure path too
		var timer *time.Timer
		for i := int64(0); i < rounds; i++ {
			p.Prepare(0)
			if seq.Load() > i {
				p.Cancel(0)
			} else if !p.Park(0, &timer, 10*time.Second) {
				// 10s timeout = test failure, not the protocol's liveness story.
				t.Errorf("round %d: park timed out — lost wakeup", i)
				return
			}
			ack.Store(i + 1)
		}
	}()
	for i := int64(0); i < rounds; i++ {
		seq.Store(i + 1)
		p.Wake(0)
		for ack.Load() <= i {
			runtime.Gosched()
		}
	}
	wg.Wait()
}

func TestParkSetPick(t *testing.T) {
	s := NewParkSet(130) // three words
	if _, ok := s.Pick(); ok {
		t.Fatal("Pick found a waiter in an empty set")
	}
	s.Set(3)
	s.Set(70)
	s.Set(129)
	got := map[int]bool{}
	for i := 0; i < 3; i++ {
		idx, ok := s.Pick()
		if !ok {
			t.Fatalf("Pick ran dry after %d of 3", i)
		}
		if got[idx] {
			t.Fatalf("Pick returned %d twice", idx)
		}
		got[idx] = true
	}
	if !got[3] || !got[70] || !got[129] {
		t.Fatalf("Pick returned %v, want {3,70,129}", got)
	}
	if _, ok := s.Pick(); ok {
		t.Fatal("Pick found a fourth waiter")
	}
	// Clear removes without picking.
	s.Set(5)
	s.Clear(5)
	if _, ok := s.Pick(); ok {
		t.Fatal("Pick found a cleared waiter")
	}
}

func TestDoorbellAny(t *testing.T) {
	d := NewDoorbell(130)
	if d.Any() {
		t.Fatal("Any() true on a fresh doorbell")
	}
	d.Set(129)
	if !d.Any() {
		t.Fatal("Any() false with bit 129 set")
	}
	d.Collect(2)
	if d.Any() {
		t.Fatal("Any() true after Collect cleared the only bit")
	}
}

// TestRingAllocPins pins the ring primitives no runtime pin drives at zero
// allocations: a claim taken with Claim (the end-to-end benchmark's ring
// probe serves through it) and a park armed and then cancelled, the path
// of a waiter whose re-check finds its wake condition already true.
func TestRingAllocPins(t *testing.T) {
	r := New[payload](4)
	p := NewParker(1)
	if n := testing.AllocsPerRun(200, func() {
		r.Claim()
		r.Unclaim()
		p.Prepare(0)
		p.Cancel(0)
	}); n != 0 {
		t.Errorf("Claim and a cancelled park allocate %v per round, want 0", n)
	}
}
