package mcd

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dps/internal/core"
)

// keysOf returns n keys owned by each of rt's partitions, by partition.
func keysOf(rt *core.Runtime, n int) [][]uint64 {
	keys := make([][]uint64, rt.Partitions())
	for k, full := uint64(0), 0; full < len(keys); k++ {
		p := rt.PartitionForKey(k).ID()
		if len(keys[p]) < n {
			keys[p] = append(keys[p], k)
			if len(keys[p]) == n {
				full++
			}
		}
	}
	return keys
}

// TestSessionBetweenCallsLeavesLocalityUnattended: a dps session serves its
// locality only inside a call, so between calls it is Idle — freshly opened,
// with its last SetAsync still buffered in an open burst, or after Drain — and
// another session's Get toward its locality runs on that session at issue:
// UnattendedExecs +1, no wake, no ring send.
func TestSessionBetweenCallsLeavesLocalityUnattended(t *testing.T) {
	for _, row := range []struct {
		name string
		// leave runs b's last calls; it returns a check of what they left.
		leave func(t *testing.T, rt *core.Runtime, b Session, keys [][]uint64) (after func())
	}{
		{"fresh session", func(*testing.T, *core.Runtime, Session, [][]uint64) func() { return func() {} }},
		{"open SetAsync burst", func(t *testing.T, rt *core.Runtime, b Session, keys [][]uint64) func() {
			// A thread that never calls keeps locality 2 attended, so the set
			// is packed, not run inline, and its burst stays open past the
			// call.
			wedge, err := rt.RegisterAt(2)
			if err != nil {
				t.Fatal(err)
			}
			k := keys[2][0]
			b.SetAsync(k, []byte("buffered"))
			if _, ok := rt.Partition(2).Data().(Cache).Get(k); ok {
				t.Fatal("the set left its sender's burst before a flush point")
			}
			return func() {
				wedge.Unregister()
				b.Drain()
				if v, ok := rt.Partition(2).Data().(Cache).Get(k); !ok || string(v) != "buffered" {
					t.Errorf("after Drain the set reads (%q, %t), want buffered", v, ok)
				}
			}
		}},
		{"after Drain", func(t *testing.T, _ *core.Runtime, b Session, keys [][]uint64) func() {
			b.SetAsync(keys[0][0], []byte("drained"))
			b.Drain()
			return func() {}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			st, err := Open("dps", Config{Partitions: 3, MaxThreads: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			rt := st.(*dpsStore).d.Runtime()
			var sess [2]Session
			for i := range sess {
				if sess[i], err = st.Session(); err != nil {
					t.Fatal(err)
				}
				defer sess[i].Close()
				if loc := sess[i].(*DPSHandle).t.Locality(); loc != i {
					t.Fatalf("session %d registered at locality %d", i, loc)
				}
			}
			keys := keysOf(rt, 1)
			after := row.leave(t, rt, sess[1], keys)

			before := st.Metrics().Totals
			if _, _, err := sess[0].Get(keys[1][0]); err != nil {
				t.Fatal(err)
			}
			m := st.Metrics().Totals
			if u, w, r := m.UnattendedExecs-before.UnattendedExecs, m.Wakes-before.Wakes, m.RemoteSends-before.RemoteSends; u != 1 || w != 0 || r != 0 {
				t.Errorf("UnattendedExecs, Wakes, RemoteSends rose by %d, %d, %d, want 1, 0, 0", u, w, r)
			}
			after()
		})
	}
}

// TestTwoSessionsRace: two sessions on the two localities of a store, and no
// other thread, mix Get, Set, SetAsync, Wave and Drain over private keys of
// both partitions. Each locality is served only by its session's waits, or by
// the other session at issue while its own is between calls, so every
// operation toward the other locality meets one of the two; each session must
// read its own writes. Under the race detector it also checks that the two
// sessions' executions on one shard are ordered.
func TestTwoSessionsRace(t *testing.T) {
	st, err := Open("dps", Config{Partitions: 2, MemLimit: 4 << 20, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rt := st.(*dpsStore).d.Runtime()
	keys := keysOf(rt, 8)
	var sess [2]Session
	for i := range sess {
		if sess[i], err = st.Session(); err != nil {
			t.Fatal(err)
		}
	}
	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	errs := make(chan error, len(sess))
	for g, s := range sess {
		go func() {
			defer s.Close()
			errs <- sessionRounds(s, g, keys, rounds, rand.New(rand.NewSource(int64(g+1))))
		}()
	}
	for range sess {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("sessions still running after 30s")
		}
	}
}

// sessionRounds runs one session of TestTwoSessionsRace: session g owns the
// keys at odd or even positions of each partition's list, and checks every
// read of them against what it last wrote.
func sessionRounds(s Session, g int, keys [][]uint64, rounds int, rng *rand.Rand) error {
	var own []uint64
	for _, pk := range keys {
		for i := g; i < len(pk); i += 2 {
			own = append(own, pk[i])
		}
	}
	model := map[uint64]string{}
	check := func(r int, k uint64, v []byte, ok bool, err error) error {
		want, set := model[k]
		if err != nil || ok != set || string(v) != want {
			return fmt.Errorf("session %d round %d key %d: (%q, %t, %v), want (%q, %t)", g, r, k, v, ok, err, want, set)
		}
		return nil
	}
	w := s.(Waver)
	for r := 0; r < rounds; r++ {
		k := own[rng.Intn(len(own))]
		v := fmt.Sprintf("%d.%d", g, r)
		switch rng.Intn(5) {
		case 0:
			if err := s.Set(k, []byte(v)); err != nil {
				return err
			}
			model[k] = v
		case 1:
			s.SetAsync(k, []byte(v))
			model[k] = v
		case 2:
			got, ok, err := s.Get(k)
			if err := check(r, k, got, ok, err); err != nil {
				return err
			}
		case 3:
			ops := make([]WaveOp, 1+rng.Intn(len(own)))
			for i := range ops {
				ops[i].Key = own[rng.Intn(len(own))]
			}
			w.Wave(ops)
			for _, o := range ops {
				if err := check(r, o.Key, o.Val, o.OK, o.Err); err != nil {
					return err
				}
			}
		default:
			s.Drain()
		}
	}
	s.Drain()
	return nil
}
