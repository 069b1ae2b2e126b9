package ring

import (
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"
)

// Parker gives each waiter (one per registered thread) a futex-style park
// slot: a padded state word plus a one-token wake channel. Instead of
// sleeping a blind quantum and re-polling, an idle thread parks on its slot
// and the event that makes progress possible (a doorbell Set for its
// locality, a server draining its ring, the thread reading a peer connection
// resolving its burst, shutdown) wakes it directly. Waking costs the
// waker one swap on a line it otherwise never touches, and only when a
// waiter is actually armed does it touch the channel.
//
// # Protocol
//
// The waiter arms with Prepare, then re-checks its wake condition (the
// doorbell, its slot's toggle, the runtime's down flag), and only then
// blocks in Park. A waker that fires between Prepare and Park leaves a
// token the Park consumes immediately; a waker that fired before Prepare
// left a stale token that Prepare drains. Because the condition check sits
// between arming and blocking, and wakers publish state before calling
// Wake, a lost-wakeup requires the condition write to be invisible to the
// re-check after the waker's Wake saw no armed slot — impossible under
// Go's sequentially consistent atomics.
//
// Park always takes a timeout: wake delivery is an optimization, liveness
// still rests on the waiter's own stall detection and forced rescue, which
// must keep running when a wake is dropped (chaos.DropDoorbell drops the
// wake along with the bell).
type Parker struct {
	slots []parkSlot
}

// Park-slot states.
const (
	parkIdle  = 0 // no waiter armed, no token pending
	parkArmed = 1 // waiter between Prepare and wake/timeout
	parkToken = 2 // wake delivered (possibly before the waiter armed)
)

// parkSlot pads the state word to its own stride, and the (write-once)
// channel to a second, so one waiter's arm/disarm traffic never invalidates
// a neighbour's wake path.
type parkSlot struct {
	state atomic.Uint32
	_     [Stride - 4]byte
	ch    chan struct{}
	_     [Stride - 8]byte
}

// Compile-time assert: a park slot is exactly two strides.
const (
	_ = 2*Stride - unsafe.Sizeof(parkSlot{})
	_ = unsafe.Sizeof(parkSlot{}) - 2*Stride
)

// NewParker creates a Parker with n park slots.
func NewParker(n int) *Parker {
	p := &Parker{slots: make([]parkSlot, n)}
	for i := range p.slots {
		p.slots[i].ch = make(chan struct{}, 1)
	}
	return p
}

// Prepare arms slot i for parking and drains any stale wake token from an
// earlier episode. After Prepare, the waiter must re-check its wake
// condition before calling Park (or call Cancel if the condition already
// holds).
func (p *Parker) Prepare(i int) {
	s := &p.slots[i]
	s.state.Store(parkArmed)
	select {
	case <-s.ch:
	default:
	}
}

// Cancel disarms slot i after Prepare without blocking. A token delivered
// in the window stays in the channel and is drained by the next Prepare.
func (p *Parker) Cancel(i int) {
	p.slots[i].state.Store(parkIdle)
}

// Park blocks on slot i until a Wake arrives or d elapses, and reports
// whether it was woken (false: timeout). timer is the waiter's reusable
// timer (nil-safe: Park allocates one and returns it via the pointer).
// Must follow Prepare.
func (p *Parker) Park(i int, timer **time.Timer, d time.Duration) bool {
	s := &p.slots[i]
	if *timer == nil {
		// One timer per thread, allocated on first park (cold).
		*timer = time.NewTimer(d)
	} else {
		(*timer).Reset(d)
	}
	select {
	case <-s.ch:
		s.state.Store(parkIdle)
		(*timer).Stop()
		return true
	case <-(*timer).C:
		s.state.Store(parkIdle)
		return false
	}
}

// Wake delivers a wake to slot i and reports whether a waiter was armed.
// When no waiter is armed this is one load — the cost a busy runtime pays
// for having the park path at all.
func (p *Parker) Wake(i int) bool {
	s := &p.slots[i]
	if s.state.Load() != parkArmed {
		return false
	}
	if s.state.Swap(parkToken) != parkArmed {
		return false
	}
	select {
	case s.ch <- struct{}{}:
	default:
	}
	return true
}

// WakeAll wakes every armed slot — the shutdown broadcast.
func (p *Parker) WakeAll() {
	for i := range p.slots {
		p.Wake(i)
	}
}

// ParkSet is a padded bitmap of parked waiters, one per locality: a thread
// registers itself before parking, and the doorbell Set path picks (and
// clears) one parked thread to wake when new work arrives. Like the
// doorbell, spurious bits are harmless (the woken thread re-checks and
// re-parks) and cleared bits are re-set by the waiter on its next park.
type ParkSet struct {
	words []bellWord
}

// NewParkSet creates a ParkSet covering n waiters.
func NewParkSet(n int) *ParkSet {
	return &ParkSet{words: make([]bellWord, (n+63)/64)}
}

// Set registers waiter i as parked. The load-test keeps a re-parking
// waiter off the shared word when its bit survived the previous episode.
func (s *ParkSet) Set(i int) {
	w := &s.words[i>>6].bits
	bit := uint64(1) << (uint(i) & 63)
	if w.Load()&bit == 0 {
		w.Or(bit)
	}
}

// Clear removes waiter i, called by the waiter itself after unparking.
func (s *ParkSet) Clear(i int) {
	w := &s.words[i>>6].bits
	bit := uint64(1) << (uint(i) & 63)
	if w.Load()&bit != 0 {
		w.And(^bit)
	}
}

// Pick claims one parked waiter — clearing its bit — and returns its
// index. The zero-load fast path keeps the no-parked-waiters case (a busy
// runtime) at one shared read per word.
func (s *ParkSet) Pick() (int, bool) {
	for w := range s.words {
		word := &s.words[w].bits
		for {
			b := word.Load()
			if b == 0 {
				break
			}
			if word.CompareAndSwap(b, b&(b-1)) { // claim lowest set bit
				return w<<6 + bits.TrailingZeros64(b), true
			}
		}
	}
	return 0, false
}

// Count returns how many waiters are registered as parked: a sender's test
// of whether any thread of the locality is awake to serve it. Like Pick it
// reads each word once.
func (s *ParkSet) Count() int {
	n := 0
	for w := range s.words {
		n += bits.OnesCount64(s.words[w].bits.Load())
	}
	return n
}

// Any reports whether a doorbell has any bit set, without consuming. The
// parked waiter's pre-block re-check uses it: a set bit means work was
// published for this locality after its last serve pass.
func (d *Doorbell) Any() bool {
	for w := range d.words {
		if d.words[w].bits.Load() != 0 {
			return true
		}
	}
	return false
}
