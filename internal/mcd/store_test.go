package mcd

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dps/internal/core"
)

// TestOpenVariants exercises the full Store/Session surface on every
// registered variant.
func TestOpenVariants(t *testing.T) {
	for _, variant := range Variants() {
		t.Run(variant, func(t *testing.T) {
			st, err := Open(variant, Config{Partitions: 2, MemLimit: 4 << 20, MaxThreads: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := st.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
			sess, err := st.Session()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()

			for i := 0; i < 100; i++ {
				if err := sess.Set(uint64(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				v, ok, err := sess.Get(uint64(i))
				if err != nil || !ok || !bytes.Equal(v, val(i)) {
					t.Fatalf("Get(%d) = (%q,%v,%v)", i, v, ok, err)
				}
			}
			if n := st.Len(); n != 100 {
				t.Fatalf("Len = %d, want 100", n)
			}
			if removed, err := sess.Delete(42); err != nil || !removed {
				t.Fatalf("Delete(42) = (%v,%v)", removed, err)
			}
			if _, ok, _ := sess.Get(42); ok {
				t.Fatal("deleted key still present")
			}
			// Asynchronous sets with the Drain barrier.
			for i := 100; i < 200; i++ {
				sess.SetAsync(uint64(i), val(i))
			}
			sess.Drain()
			for i := 100; i < 200; i++ {
				if v, ok, err := sess.Get(uint64(i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
					t.Fatalf("after Drain, Get(%d) = (%q,%v,%v)", i, v, ok, err)
				}
			}
		})
	}
}

// TestOpenUnknownVariant: a bad name reports the registry.
func TestOpenUnknownVariant(t *testing.T) {
	if _, err := Open("bogus", Config{}); err == nil {
		t.Fatal("Open(bogus) succeeded")
	}
}

// TestStoreCrossSessionVisibility: one session's drained asynchronous sets
// are visible to a different session on every variant.
func TestStoreCrossSessionVisibility(t *testing.T) {
	for _, variant := range Variants() {
		t.Run(variant, func(t *testing.T) {
			st, err := Open(variant, Config{Partitions: 2, MemLimit: 4 << 20, MaxThreads: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			a, err := st.Session()
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := st.Session()
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			a.SetAsync(7, []byte("seven"))
			a.Drain()
			if v, ok, err := b.Get(7); err != nil || !ok || string(v) != "seven" {
				t.Fatalf("cross-session Get = (%q,%v,%v)", v, ok, err)
			}
		})
	}
}

// TestStoreConcurrentSessions hammers one store from several sessions.
func TestStoreConcurrentSessions(t *testing.T) {
	for _, variant := range Variants() {
		t.Run(variant, func(t *testing.T) {
			st, err := Open(variant, Config{Partitions: 2, MemLimit: 8 << 20, MaxThreads: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			const workers, iters = 4, 300
			var wg sync.WaitGroup
			errc := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sess, err := st.Session()
					if err != nil {
						errc <- err
						return
					}
					defer sess.Close()
					for i := 0; i < iters; i++ {
						k := uint64(w*iters + i)
						if err := sess.Set(k, val(int(k))); err != nil {
							errc <- err
							return
						}
						if v, ok, err := sess.Get(k); err != nil || !ok || !bytes.Equal(v, val(int(k))) {
							errc <- fmt.Errorf("worker %d: Get(%d) = (%q,%v,%v)", w, k, v, ok, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreOpTimeoutSurface: the dps variants surface core.ErrClosed (not a
// hang or panic) once the runtime is closed under an OpTimeout config.
func TestStoreOpTimeoutSurface(t *testing.T) {
	st, err := Open("dps", Config{Partitions: 2, MaxThreads: 8, OpTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := st.Session()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Set(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionBudgetExhaustion: session acquisition fails cleanly at the
// thread budget and released sessions can be re-acquired — the
// registration-leak fix's user-visible contract.
func TestSessionBudgetExhaustion(t *testing.T) {
	st, err := Open("dps", Config{Partitions: 2, MaxThreads: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var open []Session
	for {
		sess, err := st.Session()
		if err != nil {
			if !errors.Is(err, core.ErrTooManyThreads) {
				t.Fatalf("exhaustion error = %v, want ErrTooManyThreads", err)
			}
			break
		}
		open = append(open, sess)
		if len(open) > 64 {
			t.Fatal("no session budget enforced")
		}
	}
	if len(open) != 3 {
		t.Fatalf("budget admitted %d sessions, want 3", len(open))
	}
	// Release/re-acquire churn: the budget must not erode.
	for round := 0; round < 5; round++ {
		open[len(open)-1].Close()
		open = open[:len(open)-1]
		sess, err := st.Session()
		if err != nil {
			t.Fatalf("round %d: re-acquire after release: %v", round, err)
		}
		open = append(open, sess)
	}
	for _, s := range open {
		s.Close()
	}
}

// TestOpenRejectsNegativeConfig: every variant refuses a negative memory or
// bucket budget, instead of a default (dps: each shard's share truncated to 0)
// or a store that keeps nothing (parsec: a negative capacity).
func TestOpenRejectsNegativeConfig(t *testing.T) {
	for _, variant := range Variants() {
		for _, tc := range []struct {
			name string
			cfg  Config
		}{
			{"MemLimit", Config{MemLimit: -1}},
			{"Buckets", Config{Buckets: -1}},
		} {
			t.Run(variant+"/"+tc.name, func(t *testing.T) {
				st, err := Open(variant, tc.cfg)
				if err == nil {
					st.Close()
					t.Fatalf("Open(%s, %s: -1) succeeded", variant, tc.name)
				}
			})
		}
	}
}

// TestOpenDPSShardInitFailure: a failing shard constructor must not leak the
// runtime (openDPS closes it before it returns the error).
func TestOpenDPSShardInitFailure(t *testing.T) {
	boom := errors.New("shard boom")
	cfg := Config{}
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	_, err := openDPS(cfg, false, func(int64, int) (Cache, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("openDPS error = %v, want %v", err, boom)
	}
}
