package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestServerDedupWindow drives the server's exactly-once window through a
// real listener and raw frames, at and past its bounds: a retransmitted
// (link identity, seq) burst is answered from the window byte-for-byte
// without reaching the handler, and the rows say where that stops — a
// fresh seq, an anonymous link, a burst or identity evicted past its bound
// execute again (past the window, delivery is at-least-once).
func TestServerDedupWindow(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, r *dedupRig)
	}{
		{"same_seq_replays_identical_bytes", func(t *testing.T, r *dedupRig) {
			c := r.dial(7)
			first := r.call(c, 1, 1)
			r.call(c, 2, 2) // overwrites the handler's response buffer
			if again := r.call(c, 1, 1); !bytes.Equal(again, first) {
				t.Fatalf("replay differs from the original response:\n got %x\nwant %x", again, first)
			}
			r.want(1, 1, 1)
		}},
		{"fresh_seq_executes", func(t *testing.T, r *dedupRig) {
			c := r.dial(7)
			r.call(c, 1, 1)
			if u := respU(t, r.call(c, 2, 1)); u != 2 {
				t.Fatalf("fresh seq answered U=%d, want the second execution", u)
			}
			r.want(1, 2, 0)
		}},
		{"no_ident_executes_every_time", func(t *testing.T, r *dedupRig) {
			c := r.dial(0)
			r.call(c, 1, 1)
			r.call(c, 1, 1)
			r.want(1, 2, 0)
		}},
		{"retransmit_after_stop_rebind_replays", func(t *testing.T, r *dedupRig) {
			first := r.call(r.dial(7), 1, 1)
			if err := r.srv.Stop(); err != nil {
				t.Fatal(err)
			}
			if err := r.srv.Rebind(r.listen()); err != nil {
				t.Fatal(err)
			}
			go r.srv.Serve()
			if again := r.call(r.dial(7), 1, 1); !bytes.Equal(again, first) {
				t.Fatalf("replay across a restart differs:\n got %x\nwant %x", again, first)
			}
			r.want(1, 1, 1)
		}},
		{"burst_257_evicts_seq_1", func(t *testing.T, r *dedupRig) {
			c := r.dial(7)
			for seq := uint32(1); seq <= dedupWindow+1; seq++ {
				r.call(c, seq, uint64(seq))
			}
			r.call(c, 2, 2) // still inside the window
			r.want(2, 1, 1)
			r.call(c, 1, 1) // evicted: executes again
			r.want(1, 2, 1)
		}},
		{"identity_257_evicts_the_oldest", func(t *testing.T, r *dedupRig) {
			c := r.dial(0)
			for id := uint64(1); id <= maxDedupLinks+1; id++ {
				r.ident(c, id)
				r.call(c, 1, id)
			}
			r.ident(c, 2) // still remembered
			r.call(c, 1, 2)
			r.want(2, 1, 1)
			r.ident(c, 1) // evicted: executes again
			r.call(c, 1, 1)
			r.want(1, 2, 1)
		}},
		{"retransmit_racing_the_original_waits_then_replays", func(t *testing.T, r *dedupRig) {
			release := sync.OnceFunc(func() { close(r.h.block) })
			defer release() // a failed row must not leave Close waiting on the handler
			orig := r.dial(7)
			r.send(orig, 1, blockKey)
			<-r.h.entered
			retry := r.dial(7)
			r.send(retry, 1, blockKey)
			got := make(chan []byte, 1)
			go func() {
				f, _ := readFrame(retry)
				got <- f
			}()
			select {
			case f := <-got:
				t.Fatalf("retransmit answered while the original was still applying: %x", f)
			case <-time.After(50 * time.Millisecond):
			}
			release()
			first, err := readFrame(orig)
			if err != nil {
				t.Fatal(err)
			}
			if again := <-got; !bytes.Equal(again, first) {
				t.Fatalf("racing retransmit differs:\n got %x\nwant %x", again, first)
			}
			r.want(blockKey, 1, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newDedupRig(t)) })
	}
}

// TestServerAddrWhileServing calls Addr from another goroutine while a
// connection's bursts pass through the dedup window. Addr reads the listener
// under mu and nothing else; the window belongs to dmu. Under -race a write
// to the window from outside dmu is a reported data race.
func TestServerAddrWhileServing(t *testing.T) {
	r := newDedupRig(t)
	c := r.dial(7)
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r.srv.Addr() == nil {
				t.Error("Addr is nil while the server is serving")
				return
			}
			runtime.Gosched()
		}
	}()
	const bursts = 50
	for seq := uint32(1); seq <= bursts; seq++ {
		r.call(c, seq, 5)
	}
	close(stop)
	<-polled
	r.want(5, bursts, 0)
}

// blockKey is the key countHandler holds in Apply until its block channel
// closes; the other rows' keys stay below it.
const blockKey = 1 << 32

// countHandler counts applies per key and answers each with U = that count
// and Data aliasing one buffer every apply overwrites, so a window that
// cached the live bytes instead of a copy would replay the wrong ones.
type countHandler struct {
	mu      sync.Mutex
	applied map[uint64]int
	total   uint64
	buf     [8]byte
	block   chan struct{}
	entered chan struct{}
}

func (h *countHandler) Apply(_ uint64, _ uint32, _ int, req []ReqOp, resp []RespOp) []RespOp {
	for _, r := range req {
		if r.Key == blockKey {
			h.entered <- struct{}{}
			<-h.block
		}
		h.mu.Lock()
		h.applied[r.Key]++
		h.total++
		binary.BigEndian.PutUint64(h.buf[:], h.total)
		resp = append(resp, RespOp{U: uint64(h.applied[r.Key]), HasData: true, Data: h.buf[:]})
		h.mu.Unlock()
	}
	return resp
}

// dedupRig is one Server on a loopback listener in front of a countHandler,
// spoken to in raw frames.
type dedupRig struct {
	t   *testing.T
	srv *Server
	h   *countHandler
}

func newDedupRig(t *testing.T) *dedupRig {
	r := &dedupRig{t: t, h: &countHandler{
		applied: map[uint64]int{},
		block:   make(chan struct{}),
		entered: make(chan struct{}, 1),
	}}
	r.srv = NewServer(r.listen(), 2, []int{0, 1}, r.h)
	go r.srv.Serve()
	t.Cleanup(func() { r.srv.Close() })
	return r
}

func (r *dedupRig) listen() net.Listener {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.t.Fatal(err)
	}
	return ln
}

// dial connects, reads the hello and names the link ident (0: no ident
// frame).
func (r *dedupRig) dial(ident uint64) net.Conn {
	c, err := net.Dial("tcp", r.srv.Addr().String())
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := readFrame(c); err != nil {
		r.t.Fatalf("hello: %v", err)
	}
	if ident != 0 {
		r.ident(c, ident)
	}
	return c
}

func (r *dedupRig) ident(c net.Conn, id uint64) {
	f, _ := AppendIdent(nil, id)
	if _, err := c.Write(f); err != nil {
		r.t.Fatal(err)
	}
}

// send writes a one-op burst on key toward partition 1.
func (r *dedupRig) send(c net.Conn, seq uint32, key uint64) {
	f, err := AppendRequest(nil, seq, 1, []ReqOp{{Code: 1, Key: key}})
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := c.Write(f); err != nil {
		r.t.Fatal(err)
	}
}

// call sends a burst and returns its response frame's bytes.
func (r *dedupRig) call(c net.Conn, seq uint32, key uint64) []byte {
	r.send(c, seq, key)
	f, err := readFrame(c)
	if err != nil {
		r.t.Fatalf("response to seq %d: %v", seq, err)
	}
	return f
}

// want checks how often key was applied and how many bursts the window
// replayed.
func (r *dedupRig) want(key uint64, applied int, replays uint64) {
	r.t.Helper()
	r.h.mu.Lock()
	n := r.h.applied[key]
	r.h.mu.Unlock()
	if n != applied || r.srv.Replays() != replays {
		r.t.Fatalf("key %d applied %d times with %d replays, want %d and %d", key, n, r.srv.Replays(), applied, replays)
	}
}

// readFrame reads one whole frame, length prefix included.
func readFrame(c net.Conn) ([]byte, error) {
	f := make([]byte, 4)
	if _, err := io.ReadFull(c, f); err != nil {
		return nil, err
	}
	f = append(f, make([]byte, binary.BigEndian.Uint32(f))...)
	_, err := io.ReadFull(c, f[4:])
	return f, err
}

// respU decodes a one-op response frame's U.
func respU(t *testing.T, frame []byte) uint64 {
	var f Frame
	if _, err := DecodeFrame(frame, &f); err != nil || f.Type != FrameResponse || len(f.Resp) != 1 {
		t.Fatalf("bad response frame %x: %v", frame, err)
	}
	return f.Resp[0].U
}
