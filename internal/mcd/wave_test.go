package mcd

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dps/internal/chaos"
	"dps/internal/core"
)

// TestWaveOnlyOnDelegatingVariants: Waver is the dps sessions' extension;
// the variants that execute gets inline do not offer it, so callers fall
// back to Get for them.
func TestWaveOnlyOnDelegatingVariants(t *testing.T) {
	for _, variant := range Variants() {
		st, err := Open(variant, Config{Partitions: 2, MemLimit: 4 << 20, MaxThreads: 8})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := st.Session()
		if err != nil {
			t.Fatal(err)
		}
		_, waves := sess.(Waver)
		if want := variant == "dps" || variant == "dps-parsec"; waves != want {
			t.Errorf("%s session implements Waver = %t, want %t", variant, waves, want)
		}
		sess.Close()
		if err := st.Close(); err != nil {
			t.Errorf("%s: Close: %v", variant, err)
		}
	}
}

// TestWaveMatchesGet: a wave of any length — one op, a full wave, several
// waves' worth — returns per key exactly what Get returns, hits and misses,
// on both delegating variants; on dps (whose gets are delegations, ordered
// behind the session's sets) it also observes the session's own unpublished
// asynchronous sets.
func TestWaveMatchesGet(t *testing.T) {
	for _, variant := range []string{"dps", "dps-parsec"} {
		t.Run(variant, func(t *testing.T) {
			st, err := Open(variant, Config{Partitions: 4, MemLimit: 8 << 20, MaxThreads: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			sess, err := st.Session()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			for i := 0; i < 200; i += 2 { // odd keys stay missing
				if err := sess.Set(uint64(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			w := sess.(Waver)
			for _, n := range []int{1, 8, MaxWave, 3*MaxWave + 5} {
				ops := make([]WaveOp, n)
				for i := range ops {
					// Stale results must be overwritten, not trusted.
					ops[i] = WaveOp{Key: uint64(i * 3), Val: []byte("stale"), OK: i%2 == 1, Err: errors.New("stale")}
				}
				w.Wave(ops)
				for i, o := range ops {
					v, ok, err := sess.Get(o.Key)
					if o.Err != nil || err != nil || o.OK != ok || !bytes.Equal(o.Val, v) {
						t.Fatalf("wave of %d, key %d: Wave = (%q,%t,%v), Get = (%q,%t,%v)",
							n, o.Key, o.Val, o.OK, o.Err, v, ok, err)
					}
					if want := o.Key < 200 && o.Key%2 == 0; ok != want {
						t.Fatalf("op %d key %d: hit = %t, want %t", i, o.Key, ok, want)
					}
				}
			}

			if variant != "dps" {
				return // LocalGets reads the shard directly, past pending sets
			}
			// Read-your-writes inside the session: unpublished asynchronous
			// sets are ahead of the wave's gets in every partition's FIFO.
			ops := make([]WaveOp, 12)
			for i := range ops {
				ops[i].Key = uint64(i)
				sess.SetAsync(uint64(i), []byte("v2"))
			}
			w.Wave(ops)
			for _, o := range ops {
				if o.Err != nil || !o.OK || string(o.Val) != "v2" {
					t.Fatalf("key %d after SetAsync: (%q,%t,%v), want v2", o.Key, o.Val, o.OK, o.Err)
				}
			}
		})
	}
}

// TestWaveTimeoutHitsOnlyTheWedgedLocality: with the only thread of locality
// 1 a raw core thread that never calls (so, unlike a session between calls,
// never Idle), a wave's gets to partition 1 time
// out under OpTimeout while its gets to the caller's own partition answer —
// each op carries its own verdict, in request order. The timed-out entries
// are abandoned, then reclaimed by the session's next Drain, so any number
// of such waves can follow without filling the ring.
func TestWaveTimeoutHitsOnlyTheWedgedLocality(t *testing.T) {
	st, err := Open("dps", Config{Partitions: 2, MaxThreads: 8, OpTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sessA, err := st.Session() // locality 0
	if err != nil {
		t.Fatal(err)
	}
	defer sessA.Close()

	rt := st.(*dpsStore).Runtime()
	var keys [2][]uint64 // by owning partition
	for k := uint64(0); len(keys[0]) < 2 || len(keys[1]) < 2; k++ {
		p := rt.PartitionForKey(k).ID()
		keys[p] = append(keys[p], k)
	}
	for p := range keys {
		for _, k := range keys[p][:2] {
			if err := sessA.Set(k, []byte("here")); err != nil {
				t.Fatal(err)
			}
		}
	}
	wedge, err := rt.RegisterAt(1) // locality 1's only thread; it never calls
	if err != nil {
		t.Fatal(err)
	}
	defer wedge.Unregister()

	w := sessA.(Waver)
	rounds := rt.RingDepth() + 4 // one abandoned slot a round: more than the ring holds, unless they are reaped
	for r := 0; r < rounds; r++ {
		ops := []WaveOp{{Key: keys[0][0]}, {Key: keys[1][0]}, {Key: keys[0][1]}, {Key: keys[1][1]}}
		w.Wave(ops)
		for i, o := range ops {
			if i%2 == 0 {
				if o.Err != nil || !o.OK || string(o.Val) != "here" {
					t.Fatalf("round %d local op %d: (%q,%t,%v)", r, i, o.Val, o.OK, o.Err)
				}
			} else if !errors.Is(o.Err, core.ErrTimeout) || o.OK {
				t.Fatalf("round %d wedged op %d: (%q,%t,%v), want ErrTimeout", r, i, o.Val, o.OK, o.Err)
			}
		}
		sessA.Drain() // the batch boundary: waits out the wedge by rescue, reaps
		if occ := st.Metrics().PerPartition[1].RingOccupancy; occ != 0 {
			t.Fatalf("round %d: %d slots still in flight to partition 1 after Drain", r, occ)
		}
	}
	if got, want := st.Metrics().Totals.Abandoned, uint64(2*rounds); got != want {
		t.Fatalf("Abandoned = %d, want %d", got, want)
	}
}

// remoteGets is a wave of eight gets of keys owned by partitions other than
// h's own locality, so every get is delegated.
func remoteGets(h *dpsSession) (ops [8]WaveOp) {
	for i, k := 0, uint64(1000); i < len(ops); k++ {
		if h.t.Runtime().PartitionForKey(k).ID() != h.t.Locality() {
			ops[i].Key = k
			i++
		}
	}
	return ops
}

// TestWaveZeroAlloc pins the wave machinery: eight delegated gets issued and
// collected through the session allocate nothing, with no OpTimeout and with
// one. The keys are remote so that every get rides the wave (a key of the
// session's own locality runs inline, which allocates nothing either), and
// missing because a hit allocates in the shard: Stock.Get copies the value out
// from under the bucket lock, exactly as it does for Get.
func TestWaveZeroAlloc(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		st, err := Open("dps", Config{Partitions: 4, MaxThreads: 8, OpTimeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := st.Session()
		if err != nil {
			t.Fatal(err)
		}
		w := sess.(Waver)
		ops := remoteGets(sess.(*dpsSession))
		for i := 0; i < 100; i++ { // fault in rings, parkers, histograms
			w.Wave(ops[:])
		}
		if n := testing.AllocsPerRun(200, func() { w.Wave(ops[:]) }); n != 0 {
			t.Errorf("OpTimeout %v: wave of %d gets allocated %.1f objects, want 0", timeout, len(ops), n)
		}
		sess.Close()
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}
}

// TestWaveRingFullHonoursOpTimeout: with every send finding its ring full, a
// wave's gets to remote partitions each end in ErrTimeout — the wave's
// ring-full wait is bounded by OpTimeout like every other wait of a call that
// hands back a Result — and the wave returns within 4 × ops × OpTimeout. A
// watchdog unwinds a wave that does not return by closing the store, whose
// shutdown ends the wait with ErrClosed. (While ExecuteInto's ring-full wait
// had no deadline, the wave never returned and the watchdog fired.)
func TestWaveRingFullHonoursOpTimeout(t *testing.T) {
	const opTimeout = 20 * time.Millisecond
	st, err := Open("dps", Config{
		OpTimeout:    opTimeout,
		DrainTimeout: time.Second,
		Chaos:        chaos.New(chaos.Config{RingFullProb: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sess, err := st.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	h := sess.(*dpsSession)
	// A raw core thread at every locality that never calls keeps each one
	// attended (a handle would be Idle), so the gets are sent into the full
	// rings rather than run inline on the session.
	rt := h.t.Runtime()
	for loc := 0; loc < rt.Partitions(); loc++ {
		b, err := rt.RegisterAt(loc)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Unregister()
	}
	ops := remoteGets(h)
	done := make(chan any, 1)
	start := time.Now()
	go func() {
		defer func() { done <- recover() }()
		h.Wave(ops[:])
	}()
	select {
	case rec := <-done:
		if rec != nil {
			t.Fatalf("wave panicked: %v", rec)
		}
	case <-time.After(5 * time.Second):
		st.Close()
		<-done
		t.Fatal("wave still waiting after 5s")
	}
	if elapsed, limit := time.Since(start), 4*time.Duration(len(ops))*opTimeout; elapsed > limit {
		t.Errorf("wave of %d took %v, want at most %v", len(ops), elapsed, limit)
	}
	for i, o := range ops {
		if !errors.Is(o.Err, core.ErrTimeout) || o.OK {
			t.Errorf("op %d key %d: (%q,%t,%v), want ErrTimeout", i, o.Key, o.Val, o.OK, o.Err)
		}
	}
}
