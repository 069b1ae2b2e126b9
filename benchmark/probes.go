package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dps/internal/core"
	"dps/internal/mcd"
	"dps/internal/ring"
	"dps/internal/wire"
)

// Probes time one layer's public functions on their own, so a per-layer cost
// can be set beside the end-to-end numbers as cost per hop times hops per op.
// Each runs for about probeTime and reports a mean.

const probeTime = 300 * time.Millisecond

// timeLoop calls body in batches of batch calls until probeTime has passed
// and returns nanoseconds per call.
func timeLoop(batch int, body func()) float64 {
	start := time.Now()
	calls := 0
	for time.Since(start) < probeTime {
		for i := 0; i < batch; i++ {
			body()
		}
		calls += batch
	}
	return float64(time.Since(start)) / float64(calls)
}

// probeGen is the generator's own cost per (key, op, value): the floor under
// every in-process number.
func probeGen(w *workload, vals *values, seed int64) float64 {
	g := newOpGen(w, streamSeed(seed, streamProbe, 0, 0))
	buf := make([]byte, vals.size)
	var o op
	return timeLoop(1024, func() {
		g.next(&o)
		vals.fill(buf, o.key)
	})
}

// probeStock runs the workload's operations on the bucket-locked stock
// variant from one goroutine, less the generator's own genNs: the shard's cost
// with no delegation.
func probeStock(w *workload, vals *values, seed int64, genNs float64) (float64, error) {
	st, err := mcd.Open("stock", mcd.Config{MemLimit: w.memLimit})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	s, err := st.Session()
	if err != nil {
		return 0, err
	}
	c := &sessionClient{s: s, vals: vals, val: make([]byte, vals.size)}
	defer c.close()
	const keys = 1 << 16
	if err := c.populate(keys, 0, 1); err != nil {
		return 0, err
	}
	small := *w
	small.keys = keys
	g := newOpGen(&small, streamSeed(seed, streamProbe, 1, 0))
	var t tally
	ops := make([]op, 1)
	ns := timeLoop(1024, func() {
		g.next(&ops[0])
		c.exchange(ops, &t, false)
	})
	if t.failed > 0 {
		return 0, fmt.Errorf("stock probe: %d failed ops", t.failed)
	}
	return ns - genNs, nil
}

// probeCore times the three ways an operation reaches its partition on a bare
// core runtime: a synchronous delegation to the other locality, an inline
// execution on the caller's own, and an asynchronous burst closed by a Drain.
// The other locality is served by a parking thread, as mcd's serving crew is.
func probeCore() (syncNs, localNs, asyncNs float64, err error) {
	rt, err := core.New(core.Config{
		Partitions: 2,
		Hash:       core.IdentityHash,
		Init:       func(*core.Partition) any { return new(uint64) },
	})
	if err != nil {
		return 0, 0, 0, err
	}
	count := func(p *core.Partition, key uint64, args *core.Args) core.Result {
		c := p.Data().(*uint64)
		*c += args.U[0]
		return core.Result{U: *c}
	}
	srv, err := rt.RegisterAt(1)
	if err != nil {
		return 0, 0, 0, err
	}
	var stopped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer srv.Unregister()
		for !stopped.Load() {
			srv.ServeWait(100 * time.Microsecond)
		}
	}()
	th, err := rt.RegisterAt(0)
	if err == nil {
		// Identity hashing splits the namespace in two halves.
		local, remote := uint64(1), uint64(core.DefaultNamespaceSize/2+1)
		if rt.PartitionForKey(local).ID() != 0 || rt.PartitionForKey(remote).ID() != 1 {
			err = fmt.Errorf("core probe: keys %d,%d are not local,remote", local, remote)
		} else {
			one := core.Args{U: [4]uint64{1}}
			syncNs = timeLoop(256, func() { th.ExecuteSync(remote, count, one) })
			localNs = timeLoop(4096, func() { th.ExecuteSync(local, count, one) })
			const burst = 64
			asyncNs = timeLoop(16, func() {
				for i := 0; i < burst; i++ {
					th.ExecuteAsync(remote, count, one)
				}
				th.Drain()
			}) / burst
		}
		th.Unregister()
	}
	stopped.Store(true)
	wg.Wait()
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	return syncNs, localNs, asyncNs, err
}

// hop is the ring probe's payload, padded so that a slot fills one 128-byte
// stride as the runtime's own slots do (and as dpslint's padcheck demands).
type hop struct {
	v uint64
	_ [ring.Stride - 16]byte
}

// probeRingHop is one slot's Publish-to-Drain handoff between two goroutines:
// the transport's cost per hop.
func probeRingHop() float64 {
	const hops = 1 << 19
	r := ring.New[hop](16)
	var wg sync.WaitGroup
	wg.Add(1)
	var sum uint64
	go func() {
		defer wg.Done()
		r.Claim()
		defer r.Unclaim()
		for got := 0; got < hops; {
			n := r.Drain(ring.DefaultBatch, func(s *ring.Slot[hop]) int {
				sum += s.Payload().v
				s.Release()
				return 1
			})
			if got += n; n == 0 {
				runtime.Gosched()
			}
		}
	}()
	start := time.Now()
	for i := uint64(0); i < hops; i++ {
		s := r.SendSlot()
		for s.Pending() {
			runtime.Gosched()
		}
		s.Payload().v = i
		s.Publish()
		r.AdvanceSend()
	}
	wg.Wait()
	return float64(time.Since(start)) / hops
}

// probeWake is a Parker round trip: two goroutines hand a turn back and
// forth, each parking until the other wakes it.
func probeWake() float64 {
	p := ring.NewParker(2)
	var turn atomic.Int32 // whose turn it is; 2 ends the probe
	await := func(slot int, timer **time.Timer) int32 {
		for {
			if t := turn.Load(); t != int32(1-slot) {
				return t
			}
			p.Prepare(slot)
			if t := turn.Load(); t != int32(1-slot) {
				p.Cancel(slot)
				return t
			}
			p.Park(slot, timer, 10*time.Millisecond)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var timer *time.Timer
		for await(1, &timer) == 1 {
			turn.Store(0)
			p.Wake(0)
		}
	}()
	var timer *time.Timer
	ns := timeLoop(64, func() {
		turn.Store(1)
		p.Wake(1)
		await(0, &timer)
	})
	turn.Store(2)
	p.Wake(1)
	wg.Wait()
	return ns
}

// probeCodec encodes and decodes one request frame carrying a 4-op burst of
// the workload's value size.
func probeCodec(vals *values) (float64, error) {
	ops := make([]wire.ReqOp, 4)
	for i := range ops {
		ops[i] = wire.ReqOp{Code: 1, Key: uint64(i + 1), Data: vals.fill(make([]byte, vals.size), uint64(i+1))}
	}
	var buf []byte
	var f wire.Frame
	var err error
	ns := timeLoop(1024, func() {
		var e error
		if buf, e = wire.AppendRequest(buf[:0], 1, 0, ops); e != nil {
			err = e
		} else if _, e = wire.DecodeFrame(buf, &f); e != nil {
			err = e
		}
	})
	return ns, err
}

type echoHandler struct{}

func (echoHandler) Apply(_ uint64, _ uint32, _ int, req []wire.ReqOp, resp []wire.RespOp) []wire.RespOp {
	for i := range req {
		resp = append(resp, wire.RespOp{U: req[i].Key, HasData: len(req[i].Data) > 0, Data: req[i].Data})
	}
	return resp
}

// probeWireRTT is one op's Stage/Flush/Await round trip to an echo handler
// over loopback TCP: the wire tier's cost per hop without core or mcd.
func probeWireRTT(vals *values) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := wire.NewServer(ln, 1, []int{0}, echoHandler{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve() // returns once Close is called below
	}()
	defer wg.Wait()
	defer srv.Close()
	pr, err := wire.NewPeer(0, wire.PeerConfig{Addr: ln.Addr().String(), Parts: []int{0}, Partitions: 1, Timeout: replyTimeout})
	if err != nil {
		return 0, err
	}
	defer pr.Close()
	l := pr.NewLink(0)
	defer l.Close()
	data := vals.fill(make([]byte, vals.size), 1)
	ns := timeLoop(64, func() {
		tok, e := l.Stage(ring.StagedOp{Part: 0, Code: 1, Key: 1, Data: data})
		if e == nil {
			e = l.Flush()
		}
		if e == nil {
			_, e = tok.Await(time.Time{})
		}
		if e != nil {
			err = e
		}
	})
	return ns, err
}

// runProbes fills the probe-backed per-layer metrics.
func runProbes(w *workload, vals *values, seed int64, m map[string]float64) error {
	var err error
	m["workload.gen_ns"] = probeGen(w, vals, seed)
	if m["mcd.stock_op_ns"], err = probeStock(w, vals, seed, m["workload.gen_ns"]); err != nil {
		return err
	}
	if m["core.sync_ns"], m["core.local_ns"], m["core.async_ns"], err = probeCore(); err != nil {
		return err
	}
	m["ring.hop_ns"] = probeRingHop()
	m["ring.wake_us"] = probeWake() / 1e3
	if m["wire.codec_ns"], err = probeCodec(vals); err != nil {
		return err
	}
	rtt, err := probeWireRTT(vals)
	m["wire.rtt_us"] = rtt / 1e3
	return err
}
