package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"time"

	keydist "dps/internal/workload" // named apart from this package's workload type
)

// base anchors every timestamp of a run: times are nanoseconds since it, read
// from the monotonic clock.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opSetNoreply
)

// op is one generated operation and the times the generator saw for it.
type op struct {
	key  uint64
	kind opKind
	due  int64 // paced phase: when the schedule wanted it sent
	done int64 // when its verified response was in hand; 0 for noreply sets
}

// patWindow is how many distinct offsets into the seeded pattern keys use.
const patWindow = 256

// values makes every key's value a function of the key and the seed: the
// first 8 bytes are the key, the rest a slice of a seeded pattern. A set always
// writes that value, so any hit can be compared byte for byte whatever the
// interleaving of sets and gets was.
type values struct {
	size int
	pat  []byte
}

func newValues(seed int64, size int) *values {
	v := &values{size: size, pat: make([]byte, size+patWindow)}
	rng := rand.New(rand.NewSource(seed))
	for i := range v.pat {
		v.pat[i] = 'a' + byte(rng.Intn(26))
	}
	return v
}

// fill writes key's value into dst, which must hold size bytes.
func (v *values) fill(dst []byte, key uint64) []byte {
	dst = dst[:v.size]
	binary.BigEndian.PutUint64(dst, key)
	copy(dst[8:], v.pat[key%patWindow:])
	return dst
}

func (v *values) check(got []byte, key uint64) bool {
	return len(got) == v.size &&
		binary.BigEndian.Uint64(got) == key &&
		bytes.Equal(got[8:], v.pat[key%patWindow:][:v.size-8])
}

// opGen draws one client's operation stream.
type opGen struct {
	zipf         *keydist.Zipf
	rng          *rand.Rand
	setBelow     float64
	noreplyBelow float64
}

// Stream numbers keep the generators of one run apart: every (phase, window,
// client) draws from its own seeded stream, so the same -seed always offers the
// same operations in the same order.
const (
	streamWarmup = 1
	streamSat    = 2
	streamSolo   = 3
	streamPaced  = 4
	streamProbe  = 5
)

func streamSeed(seed int64, phase, window, client int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(phase)<<32 + uint64(window)<<16 + uint64(client)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return int64(x >> 1)
}

func newOpGen(w *workload, seed int64) *opGen {
	return &opGen{
		zipf:         keydist.NewZipf(w.keys, keydist.DefaultTheta, seed),
		rng:          rand.New(rand.NewSource(seed + 1)),
		setBelow:     w.setShare,
		noreplyBelow: w.noreplyShare,
	}
}

func (g *opGen) next(o *op) {
	o.key = g.zipf.Next()
	o.done = 0
	switch r := g.rng.Float64(); {
	case r < g.noreplyBelow:
		o.kind = opSetNoreply
	case r < g.setBelow:
		o.kind = opSet
	default:
		o.kind = opGet
	}
}
