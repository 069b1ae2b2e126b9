package core

import (
	"testing"
	"time"

	"dps/internal/chaos"
)

// threePartRuntime is twoPartRuntime with a second remote partition: keys
// 0..999 are partition 0, 1000..1999 partition 1, 2000..2999 partition 2.
func threePartRuntime(t testing.TB, cfg Config) *Runtime {
	t.Helper()
	cfg.Partitions = 3
	cfg.NamespaceSize = 3000
	cfg.Hash = IdentityHash
	cfg.Init = newCounterInit()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// runWaves issues rounds waves of width ExecuteInto operations from a thread
// at locality 0 — rotating over the first remotes remote partitions (with
// two, every operation flushes its predecessor's burst and claims a fresh
// slot, and a local key sits in the middle of waves of three or more) —
// and collects each wave in request order, checking every result. A sender
// that outran its own ring would never return from ExecuteInto (the test
// times out in claimSlot).
func runWaves(t *testing.T, rt *Runtime, rounds, width, remotes int) {
	t.Helper()
	for _, loc := range []int{1, 2} {
		stop := startServer(t, rt, loc)
		defer stop()
	}
	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	cs := make([]Completion, width)
	for r := 0; r < rounds; r++ {
		key := func(i int) uint64 {
			if remotes > 1 && width >= 3 && i == width/2 {
				return 5
			}
			return uint64(1000*(1+(r+i)%remotes) + (r*width+i)%1000)
		}
		for i := range cs {
			th.ExecuteInto(&cs[i], key(i), opNop, Args{U: [4]uint64{uint64(r)}})
		}
		for i := range cs {
			if res := cs[i].Result(); res.Err != nil || res.U != key(i)+uint64(r) {
				t.Fatalf("round %d op %d: got %+v, want U=%d", r, i, res, key(i)+uint64(r))
			}
		}
	}
}

// TestExecuteIntoWaveShallowRings: a wave as wide as the rings are deep
// completes on depth-1 and depth-2 rings.
func TestExecuteIntoWaveShallowRings(t *testing.T) {
	for _, depth := range []int{1, 2} {
		rt := threePartRuntime(t, Config{RingDepth: depth})
		if rt.RingDepth() != depth {
			t.Fatalf("RingDepth() = %d, want %d", rt.RingDepth(), depth)
		}
		runWaves(t, rt, 300, depth, 2)
	}
}

// TestChaosExecuteIntoWave: with every burst join refused (each operation
// takes its own slot, so a full-width wave to one partition occupies its
// whole ring) and half the doorbells lost, default-depth waves still
// complete.
func TestChaosExecuteIntoWave(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 41, SplitBurstProb: 1, DropDoorbellProb: 0.5})
	rt := threePartRuntime(t, Config{Chaos: inj})
	runWaves(t, rt, 20, rt.RingDepth(), 1)
	runWaves(t, rt, 20, rt.RingDepth(), 2)
	if c := inj.Counts(); c.BurstsSplit == 0 || c.DoorbellsLost == 0 {
		t.Fatalf("injector idle: %+v", c)
	}
}

// TestExecuteIntoRecordReuse: a local key's record is born done, and a
// consumed record can carry the next operation.
func TestExecuteIntoRecordReuse(t *testing.T) {
	t.Parallel()
	rt := twoPartRuntime(t, DefaultRingDepth)
	stop := startServer(t, rt, 1)
	defer stop()
	th, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	var c Completion
	th.ExecuteInto(&c, 7, opNop, Args{U: [4]uint64{1}})
	if res, ok := c.Ready(); !ok || res.U != 8 {
		t.Fatalf("local ExecuteInto = (%+v, %t), want done with U=8", res, ok)
	}
	// The record is reusable once consumed.
	th.ExecuteInto(&c, 1007, opNop, Args{U: [4]uint64{1}})
	if res := c.Result(); res.Err != nil || res.U != 1008 {
		t.Fatalf("remote ExecuteInto = %+v, want U=1008", res)
	}
}

// TestExecuteIntoWaveZeroAlloc pins the wave path: eight remote operations
// issued into caller storage and collected — with and without an OpTimeout —
// allocate nothing.
func TestExecuteIntoWaveZeroAlloc(t *testing.T) {
	for _, d := range []time.Duration{0, time.Minute} {
		rt := threePartRuntime(t, Config{OpTimeout: d})
		stop := startServer(t, rt, 1)
		th, err := rt.RegisterAt(0)
		if err != nil {
			t.Fatal(err)
		}
		var cs [8]Completion
		for i := uint64(0); i < 100; i++ {
			if res := th.ExecuteSync(1000+i, opNop, Args{}); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			for i := range cs {
				th.ExecuteInto(&cs[i], 1000+uint64(i), opNop, Args{})
			}
			for i := range cs {
				cs[i].Result()
			}
		})
		if allocs != 0 {
			t.Errorf("OpTimeout %v: wave of %d ExecuteInto+Result allocated %.1f objects, want 0", d, len(cs), allocs)
		}
		th.Unregister()
		stop()
	}
}
