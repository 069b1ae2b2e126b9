package ring

import (
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Doorbell is a per-locality bitmap of sender channels with pending work:
// one bit per sender ring (or per ffwd client line), chunked into padded
// 64-bit words above 64 senders. It is the structure that makes a serve
// pass O(active senders) instead of O(registered senders): an idle pass
// costs one shared read per word, while the pre-doorbell scan touched one
// server-written toggle line per registered ring.
//
// # Protocol
//
// The sender publishes its slot first (toggle store), then calls Set. The
// server Collects a word (atomically swapping it to zero) and visits only
// the set bits. Go's atomics are sequentially consistent, so a Collect
// that observes a sender's Set also observes the Publish that preceded it
// — a consumed bit always finds its pending slot. A Set that lands after
// the Collect simply survives to the next pass. The one loss mode is a bit
// consumed by a server that then fails to drain the ring (claim held
// elsewhere, batch bound hit): the server must re-Set the bit, and serve
// loops additionally keep a periodic full-scan fallback so a bit lost to a
// crash or an injected fault (chaos.DropDoorbell) delays service instead
// of wedging it.
//
// Spurious bits are harmless: the server finds nothing pending and moves
// on. Lost bits are the dangerous direction, and the fallback bounds them.
type Doorbell struct {
	words []bellWord
}

// bellWord pads each 64-ring bitmap word to its own stride so senders
// ringing bells for different words never false-share, and so the word a
// server polls is not invalidated by neighbouring ring traffic.
type bellWord struct {
	bits atomic.Uint64
	_    [Stride - 8]byte
}

// Compile-time assert: a bell word is exactly one stride.
const (
	_ = Stride - unsafe.Sizeof(bellWord{})
	_ = unsafe.Sizeof(bellWord{}) - Stride
)

// NewDoorbell creates a doorbell covering n sender channels.
func NewDoorbell(n int) *Doorbell {
	return &Doorbell{words: make([]bellWord, (n+63)/64)}
}

// Words returns the number of 64-bit bitmap words.
func (d *Doorbell) Words() int { return len(d.words) }

// Set rings the bell for sender channel i. Call after publishing the slot
// the bit advertises (publish-then-set is what makes a consumed bit imply
// a visible pending slot). The load-test first keeps a sender streaming
// into an already-advertised ring on a shared cache line instead of
// re-dirtying the word on every send.
func (d *Doorbell) Set(i int) {
	w := &d.words[i>>6].bits
	bit := uint64(1) << (uint(i) & 63)
	if w.Load()&bit == 0 {
		w.Or(bit)
	}
}

// Collect atomically takes and clears word w's set bits. A zero word is
// the idle fast path: one shared load, no store, no line invalidation.
func (d *Doorbell) Collect(w int) uint64 {
	word := &d.words[w].bits
	if word.Load() == 0 {
		return 0
	}
	return word.Swap(0)
}

// PopBit pops the lowest set bit from *bitsp (a Collect snapshot of word
// w) and returns its channel index. Call only with *bitsp != 0.
func PopBit(w int, bitsp *uint64) int {
	b := *bitsp
	i := bits.TrailingZeros64(b)
	*bitsp = b & (b - 1)
	return w<<6 + i
}
