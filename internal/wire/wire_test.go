package wire

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/ring"
)

// --- golden frames -------------------------------------------------------
//
// Byte-for-byte expectations pin the wire format: a codec refactor that
// changes any encoded byte breaks cross-version peers and must fail here.

func goldenRequest() ([]byte, []ReqOp) {
	ops := []ReqOp{{
		Code: 7,
		Fire: true,
		Part: 5,
		Key:  0x1122334455667788,
		U:    [4]uint64{1, 2, 3, 4},
		Data: []byte("ab"),
	}}
	want := []byte{
		0x00, 0x00, 0x00, 0x3c, // length: 7 + 51 + 2
		0x01,                   // type: request
		0x01, 0x02, 0x03, 0x04, // seq
		0x00, 0x01, // nops
		0x00, 0x07, // code
		0x01,                   // flags: fire
		0x00, 0x00, 0x00, 0x05, // part
		0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, // key
		0, 0, 0, 0, 0, 0, 0, 1, // U[0]
		0, 0, 0, 0, 0, 0, 0, 2, // U[1]
		0, 0, 0, 0, 0, 0, 0, 3, // U[2]
		0, 0, 0, 0, 0, 0, 0, 4, // U[3]
		0x00, 0x00, 0x00, 0x02, // dlen
		'a', 'b',
	}
	return want, ops
}

func goldenResponse() ([]byte, []RespOp) {
	ops := []RespOp{
		{U: 42, HasData: true, Data: []byte("xy")},
		{Err: "boom"},
	}
	want := []byte{
		0x00, 0x00, 0x00, 0x2b, // length: 7 + 17 + 19
		0x02,                   // type: response
		0x00, 0x00, 0x00, 0x09, // seq
		0x00, 0x02, // nops
		// entry 0: data, no error
		0x01,                    // flags: hasData
		0, 0, 0, 0, 0, 0, 0, 42, // U
		0x00, 0x00, 0x00, 0x02, // dlen
		'x', 'y',
		0x00, 0x00, // elen
		// entry 1: error, no data
		0x02,                   // flags: hasErr
		0, 0, 0, 0, 0, 0, 0, 0, // U
		0x00, 0x00, 0x00, 0x00, // dlen
		0x00, 0x04, // elen
		'b', 'o', 'o', 'm',
	}
	return want, ops
}

func goldenHello() []byte {
	return []byte{
		0x00, 0x00, 0x00, 0x17, // length: 7 + 8 + 4*2
		0x00,                   // type: hello
		0x00, 0x00, 0x00, 0x00, // seq
		0x00, 0x02, // nops = len(owned)
		0x00, 0x00, 0x00, 0x03, // version
		0x00, 0x00, 0x00, 0x04, // partitions
		0x00, 0x00, 0x00, 0x02, // owned[0]
		0x00, 0x00, 0x00, 0x03, // owned[1]
	}
}

func TestGoldenRequest(t *testing.T) {
	want, ops := goldenRequest()
	got, err := AppendRequest(nil, 0x01020304, 5, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("request frame:\n got %x\nwant %x", got, want)
	}
	var f Frame
	n, err := DecodeFrame(got, &f)
	if err != nil || n != len(got) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if f.Type != FrameRequest || f.Seq != 0x01020304 || len(f.Req) != 1 {
		t.Fatalf("decoded header: %+v", f)
	}
	r := f.Req[0]
	if r.Code != 7 || !r.Fire || r.Part != 5 || r.Key != 0x1122334455667788 || r.U != [4]uint64{1, 2, 3, 4} || !bytes.Equal(r.Data, []byte("ab")) {
		t.Fatalf("decoded op: %+v", r)
	}
}

func TestGoldenResponse(t *testing.T) {
	want, ops := goldenResponse()
	got, err := AppendResponse(nil, 9, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("response frame:\n got %x\nwant %x", got, want)
	}
	var f Frame
	if _, err := DecodeFrame(got, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Resp) != 2 {
		t.Fatalf("decoded %d entries", len(f.Resp))
	}
	if r := f.Resp[0]; r.U != 42 || !r.HasData || !bytes.Equal(r.Data, []byte("xy")) || r.Err != "" {
		t.Fatalf("entry 0: %+v", r)
	}
	if r := f.Resp[1]; r.HasData || r.Err != "boom" {
		t.Fatalf("entry 1: %+v", r)
	}
}

func TestGoldenHello(t *testing.T) {
	want := goldenHello()
	got, err := AppendHello(nil, 4, []uint32{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("hello frame:\n got %x\nwant %x", got, want)
	}
	var f Frame
	if _, err := DecodeFrame(got, &f); err != nil {
		t.Fatal(err)
	}
	if f.Hello.Version != Version || f.Hello.Partitions != 4 || len(f.Hello.Owned) != 2 {
		t.Fatalf("decoded hello: %+v", f.Hello)
	}
}

// TestErrorRehydration pins the sentinel round-trip: canonical error
// texts come back as the canonical identities, everything else as
// OpError.
func TestErrorRehydration(t *testing.T) {
	frame, err := AppendResponse(nil, 1, []RespOp{
		{Err: ring.ErrClosed.Error()},
		{Err: ring.ErrTimeout.Error()},
		{Err: "op failed: whatever"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if _, err := DecodeFrame(frame, &f); err != nil {
		t.Fatal(err)
	}
	if e := toError(f.Resp[0].Err); !errors.Is(e, ring.ErrClosed) {
		t.Fatalf("closed rehydrated as %v", e)
	}
	if e := toError(f.Resp[1].Err); !errors.Is(e, ring.ErrTimeout) {
		t.Fatalf("timeout rehydrated as %v", e)
	}
	var op OpError
	if e := toError(f.Resp[2].Err); !errors.As(e, &op) || string(op) != "op failed: whatever" {
		t.Fatalf("op error rehydrated as %v", e)
	}
}

func TestDecodeRejects(t *testing.T) {
	req, _ := goldenRequest()
	resp, _ := goldenResponse()
	var f Frame
	// Truncations of valid frames: ErrShort only at the length prefix,
	// ErrCorrupt (declared length vs actual) after it.
	for _, frame := range [][]byte{req, resp, goldenHello()} {
		for cut := 0; cut < len(frame); cut++ {
			if _, err := DecodeFrame(frame[:cut], &f); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	}
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), req...)
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"bad type":      corrupt(func(b []byte) { b[4] = 9 }),
		"zero nops":     corrupt(func(b []byte) { b[9], b[10] = 0, 0 }),
		"huge nops":     corrupt(func(b []byte) { b[9], b[10] = 0xff, 0xff }),
		"trailing junk": append(append([]byte(nil), req...), 0),
		"huge length":   corrupt(func(b []byte) { b[0] = 0xff }),
		"tiny length":   corrupt(func(b []byte) { b[0], b[1], b[2], b[3] = 0, 0, 0, 1 }),
		// Control frames have no part field: the v2 layouts, which carried
		// one, leave bytes behind the header.
		"ping with a part field":  {0, 0, 0, 11, FramePing, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0},
		"ident with a part field": {0, 0, 0, 19, FrameIdent, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8},
	}
	for name, b := range cases {
		if name == "trailing junk" {
			// The extra byte extends the buffer, not the declared frame:
			// DecodeFrame consumes the declared length and reports it.
			n, err := DecodeFrame(b, &f)
			if err != nil || n != len(req) {
				t.Fatalf("trailing junk: n=%d err=%v", n, err)
			}
			continue
		}
		if _, err := DecodeFrame(b, &f); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrShort) {
			t.Fatalf("%s: err=%v, want corrupt/short", name, err)
		}
	}
}

// mixedRequest encodes one request frame whose entries go toward parts,
// one entry per element.
func mixedRequest(parts []uint32) []byte {
	ops := make([]ReqOp, len(parts))
	for i, p := range parts {
		ops[i] = ReqOp{Code: uint16(i), Fire: i%2 == 0, Part: p, Key: uint64(i), Data: []byte{byte(i)}}
	}
	b, err := AppendRequest(nil, uint32(len(parts)), 0, ops)
	if err != nil {
		panic(err)
	}
	return b
}

func FuzzDecodeFrame(f *testing.F) {
	req, _ := goldenRequest()
	resp, _ := goldenResponse()
	f.Add(req)
	f.Add(resp)
	f.Add(goldenHello())
	for _, parts := range [][]uint32{{2, 3}, {3, 2, 3, 2}, {0, 1, 2, 3, 0xffffffff}} {
		f.Add(mixedRequest(parts))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		n, err := DecodeFrame(data, &fr)
		if err == nil {
			// Whatever decoded must re-encode to the consumed bytes —
			// the codec is symmetric by construction.
			var re []byte
			var rerr error
			switch fr.Type {
			case FrameRequest:
				re, rerr = AppendRequest(nil, fr.Seq, 0, fr.Req)
			case FrameResponse:
				re, rerr = AppendResponse(nil, fr.Seq, fr.Resp)
			case FrameHello:
				// Hello fields the decoder tolerates but the encoder
				// normalizes: foreign versions, a nonzero seq, and
				// owned lists beyond what one process would declare.
				if fr.Hello.Version != Version || fr.Seq != 0 || len(fr.Hello.Owned) > MaxBurst*64 {
					return
				}
				re, rerr = AppendHello(nil, fr.Hello.Partitions, fr.Hello.Owned)
			case FramePing, FramePong:
				re, rerr = AppendControl(nil, fr.Type, fr.Seq)
			case FrameIdent:
				re, rerr = AppendIdent(nil, fr.Ident)
			}
			if rerr != nil {
				t.Fatalf("decoded frame does not re-encode: %v", rerr)
			}
			if !bytes.Equal(re, data[:n]) {
				t.Fatalf("asymmetric codec:\n in  %x\n out %x", data[:n], re)
			}
		}
	})
}

// --- allocation pins -----------------------------------------------------

// TestCodecAllocPins pins the codec hot path: with warm buffers, encode
// and decode allocate nothing.
func TestCodecAllocPins(t *testing.T) {
	reqFrame, reqOps := goldenRequest()
	respFrame, respOps := goldenResponse()
	buf := make([]byte, 0, 4096)
	var f Frame
	var sink atomic.Uint64 // defeat dead-code elimination without allocating

	if n := testing.AllocsPerRun(500, func() {
		out, err := AppendRequest(buf[:0], 1, 2, reqOps)
		if err != nil {
			panic(err)
		}
		sink.Add(uint64(len(out)))
	}); n != 0 {
		t.Fatalf("AppendRequest allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		out, err := AppendResponse(buf[:0], 1, respOps)
		if err != nil {
			panic(err)
		}
		sink.Add(uint64(len(out)))
	}); n != 0 {
		t.Fatalf("AppendResponse allocates %v/op", n)
	}
	// The decode pin's response frame carries success entries plus the
	// interned sentinel texts; non-sentinel error strings are the one
	// documented decode-side copy and would (correctly) fail this pin.
	okResp, err := AppendResponse(nil, 3, []RespOp{
		{U: 7, HasData: true, Data: []byte("warm")},
		{Err: closedText},
		{Err: timeoutText},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		consumed, err := DecodeFrame(reqFrame, &f)
		if err != nil {
			panic(err)
		}
		consumed2, err := DecodeFrame(okResp, &f)
		if err != nil {
			panic(err)
		}
		sink.Add(uint64(consumed + consumed2))
	}); n != 0 {
		t.Fatalf("DecodeFrame allocates %v/op", n)
	}
	_ = respFrame
}

// TestLinkStageAllocPin pins Link.Stage's steady state: packing into an
// open burst allocates nothing (the per-burst Pending record is the
// documented exception, allocated once per claim, and the test resets
// the burst around the measured region so it stays open).
func TestLinkStageAllocPin(t *testing.T) {
	pr, err := NewPeer(0, PeerConfig{Addr: "127.0.0.1:1", Parts: []int{0}, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := pr.NewLink(0)
	data := []byte("steady-state")
	op := ring.StagedOp{Part: 0, Code: 3, Key: 99, U: [4]uint64{1, 2, 3, 4}, Data: data}
	// Open the burst once; the measured loop packs entry #1 over and
	// over by rolling the open burst back between runs.
	if _, err := l.Stage(op); err != nil {
		t.Fatal(err)
	}
	base := len(l.buf)
	if n := testing.AllocsPerRun(500, func() {
		if _, err := l.Stage(op); err != nil {
			panic(err)
		}
		l.buf = l.buf[:base]
		l.n = 1
	}); n != 0 {
		t.Fatalf("Link.Stage allocates %v/op in an open burst", n)
	}
}

// TestResolvePublishesResults holds resolve and fail to the publish order
// Tok.Ready relies on: a burst's results are written before its state flips
// to resolved, so a poller that sees the flip reads finished results. A
// goroutine polls every token of the burst while it resolves; under -race a
// result written after the flip is a reported data race, and without it the
// poller may read a result not yet written.
func TestResolvePublishesResults(t *testing.T) {
	for _, tc := range []struct {
		name    string
		publish func(p *Pending)
		want    []ring.Result
	}{
		{"resolve", func(p *Pending) {
			p.resolve(&Frame{Resp: []RespOp{{U: 1}, {U: 2, HasData: true, Data: []byte("x")}, {Err: closedText}}})
		}, []ring.Result{{U: 1}, {U: 2, P: []byte("x")}, {Err: ring.ErrClosed}}},
		{"fail", func(p *Pending) { p.fail(ring.ErrPeerDown) },
			[]ring.Result{{Err: ring.ErrPeerDown}, {Err: ring.ErrPeerDown}, {Err: ring.ErrPeerDown}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 50; round++ {
				p := &Pending{n: int32(len(tc.want)), done: make(chan struct{})}
				seen := make([]ring.Result, len(tc.want))
				polled := make(chan struct{})
				go func() {
					defer close(polled)
					for i := range seen {
						tok := Tok{p: p, i: int32(i)}
						for {
							if r, ok := tok.Ready(); ok {
								seen[i] = r
								break
							}
							runtime.Gosched()
						}
					}
				}()
				tc.publish(p)
				<-polled
				for i, w := range tc.want {
					if g := seen[i]; !reflect.DeepEqual(g, w) {
						t.Fatalf("round %d: token %d read %+v, want %+v", round, i, g, w)
					}
				}
			}
		})
	}
}

// --- peer/server round trip ---------------------------------------------

type echoHandler struct {
	applied atomic.Uint64
	lastSrc atomic.Uint64
}

func (h *echoHandler) Apply(src uint64, seq uint32, part int, req []ReqOp, resp []RespOp) []RespOp {
	h.lastSrc.Store(src)
	for i := range req {
		h.applied.Add(1)
		resp = append(resp, RespOp{U: req[i].Key + req[i].U[0], HasData: len(req[i].Data) > 0, Data: req[i].Data})
	}
	return resp
}

func TestPeerRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &echoHandler{}
	srv := NewServer(ln, 2, []int{0, 1}, h)
	go srv.Serve()
	defer srv.Close()

	pr, err := NewPeer(0, PeerConfig{Addr: ln.Addr().String(), Parts: []int{1}, Partitions: 2, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	l := pr.NewLink(0)
	toks := make([]Tok, 0, 8)
	for i := uint64(0); i < 8; i++ {
		tok, err := l.Stage(ring.StagedOp{Part: 1, Code: 1, Key: i, U: [4]uint64{100}, Data: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tok)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, tok := range toks {
		res, err := tok.Await(time.Time{})
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if res.U != uint64(i)+100 {
			t.Fatalf("op %d: U=%d", i, res.U)
		}
		if !bytes.Equal(res.P.([]byte), []byte{byte(i)}) {
			t.Fatalf("op %d: data %v", i, res.P)
		}
	}
	if got := h.applied.Load(); got != 8 {
		t.Fatalf("handler applied %d ops", got)
	}
	st := pr.Stats()
	if st.FramesSent != 1 || st.Ops != 8 || st.Pending != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if h.lastSrc.Load() == 0 {
		t.Fatal("server never saw the link's ident")
	}
}

// TestHelloRefused: a peer whose hello does not match is a configuration
// error the first burst fails with at once, not a link failure to redial.
func TestHelloRefused(t *testing.T) {
	v3, _ := AppendHello(nil, 2, []uint32{1})
	cases := []struct {
		name  string
		hello []byte
		want  string
	}{
		// A v2 peer: a part field in the header, version 2.
		{"v2 peer", []byte{0, 0, 0, 23, FrameHello, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 1}, "not protocol v3"},
		{"version field", append(append([]byte(nil), v3[:11]...), append([]byte{0, 0, 0, 2}, v3[15:]...)...), "speaks protocol v2"},
		{"partition count", func() []byte { b, _ := AppendHello(nil, 3, []uint32{1}); return b }(), "has 3 partitions"},
		{"partition not owned", func() []byte { b, _ := AppendHello(nil, 2, []uint32{0}); return b }(), "does not own partition 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				c.Write(tc.hello)
				c.Read(make([]byte, 64))
			}()
			pr, err := NewPeer(0, PeerConfig{Addr: ln.Addr().String(), Parts: []int{1}, Partitions: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer pr.Close()
			l := pr.NewLink(0)
			tok, err := l.Stage(ring.StagedOp{Part: 1, Code: 1})
			if err != nil {
				t.Fatal(err)
			}
			err = l.Flush()
			if err == nil || errors.Is(err, ring.ErrPeerDown) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("flush: %v, want a configuration error containing %q", err, tc.want)
			}
			if _, err := tok.Await(time.Time{}); err == nil {
				t.Fatal("the burst's token resolved without the error")
			}
		})
	}
}

// TestPeerClosedFailsFast: once the peer is closed, stages fail with the
// canonical ErrClosed and pending bursts resolve immediately.
func TestPeerClosedFailsFast(t *testing.T) {
	pr, err := NewPeer(0, PeerConfig{Addr: "127.0.0.1:1", Parts: []int{0}, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr.Close()
	l := pr.NewLink(0)
	if _, err := l.Stage(ring.StagedOp{Part: 0}); !errors.Is(err, ring.ErrClosed) {
		t.Fatalf("stage after close: %v", err)
	}
}
