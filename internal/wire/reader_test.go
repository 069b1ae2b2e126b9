package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
)

// segConn is a connection whose inbound side is scripted: each Read delivers
// the next segment (one that does not fit spills into the following Read) and
// is counted; EOF follows the last. With poison set, a Read first overwrites
// all of the buffer it was handed — what the kernel may do to bytes a frame
// decoded from an earlier Read still points into. Writes are captured.
type segConn struct {
	net.Conn // nil: only Read, Write and Close are called
	segs     [][]byte
	reads    int
	poison   bool
	out      bytes.Buffer
}

func (c *segConn) Read(p []byte) (int, error) {
	c.reads++
	if c.poison {
		for i := range p {
			p[i] = 0xAA
		}
	}
	if len(c.segs) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.segs[0])
	if c.segs[0] = c.segs[0][n:]; len(c.segs[0]) == 0 {
		c.segs = c.segs[1:]
	}
	return n, nil
}

func (c *segConn) Write(b []byte) (int, error) { return c.out.Write(b) }
func (c *segConn) Close() error                { return nil }

// cloneFrame copies f and everything it sub-slices, so it survives both the
// Frame's and the read buffer's reuse.
func cloneFrame(f *Frame) Frame {
	c := Frame{Type: f.Type, Seq: f.Seq, Part: f.Part}
	switch f.Type {
	case FrameRequest:
		for _, op := range f.Req {
			op.Data = append([]byte{}, op.Data...)
			c.Req = append(c.Req, op)
		}
	case FrameResponse:
		for _, op := range f.Resp {
			op.Data = append([]byte{}, op.Data...)
			c.Resp = append(c.Resp, op)
		}
	case FrameHello:
		c.Hello = f.Hello
		c.Hello.Owned = append([]uint32{}, f.Hello.Owned...)
	case FrameIdent:
		c.Ident = f.Ident
	}
	return c
}

// decodeAll is the reference: DecodeFrame over the whole stream in memory.
func decodeAll(t testing.TB, stream []byte) []Frame {
	var out []Frame
	var f Frame
	for len(stream) > 0 {
		n, err := DecodeFrame(stream, &f)
		if err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		out = append(out, cloneFrame(&f))
		stream = stream[n:]
	}
	return out
}

// readAll drains a frame reader to EOF.
func readAll(t testing.TB, c io.Reader) []Frame {
	var out []Frame
	var f Frame
	fr := newFrameReader(c)
	for {
		_, _, err := fr.next(&f)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		out = append(out, cloneFrame(&f))
	}
}

// mixedStream encodes n frames — request bursts, response bursts (some with
// an error entry: a sentinel's text, which the decoder interns) and pings,
// payloads of 0 to maxData bytes — back to back.
func mixedStream(t testing.TB, n, maxData int) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	data := func() []byte {
		b := make([]byte, rng.Intn(maxData+1))
		rng.Read(b)
		return b
	}
	var stream []byte
	var err error
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			ops := make([]ReqOp, 1+rng.Intn(4))
			for j := range ops {
				ops[j] = ReqOp{Code: uint16(j), Fire: j%2 == 1, Key: rng.Uint64(), U: [4]uint64{uint64(i)}, Data: data()}
			}
			stream, err = AppendRequest(stream, uint32(i), uint32(i%4), ops)
		case 1:
			ops := make([]RespOp, 1+rng.Intn(4))
			for j := range ops {
				ops[j] = RespOp{U: rng.Uint64(), HasData: true, Data: data()}
				if j == 3 {
					ops[j] = RespOp{Err: timeoutText}
				}
			}
			stream, err = AppendResponse(stream, uint32(i), uint32(i%4), ops)
		case 2:
			stream, err = AppendControl(stream, FramePing, uint32(i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return stream
}

// TestFrameReaderSplits: however the stream is cut into reads, the reader
// decodes exactly what DecodeFrame decodes from the stream in one piece.
func TestFrameReaderSplits(t *testing.T) {
	stream := mixedStream(t, 50, 200)
	want := decodeAll(t, stream)
	if len(want) != 50 {
		t.Fatalf("reference decoded %d frames", len(want))
	}
	bytewise := &segConn{}
	for i := range stream {
		bytewise.segs = append(bytewise.segs, stream[i:i+1])
	}
	if got := readAll(t, bytewise); !reflect.DeepEqual(got, want) {
		t.Fatal("one byte per Read: decoded frames differ from the reference")
	}

	req, _ := goldenRequest()
	resp, _ := goldenResponse()
	two := append(append([]byte{}, req...), resp...)
	want = decodeAll(t, two)
	for cut := 1; cut < len(two); cut++ {
		c := &segConn{segs: [][]byte{two[:cut:cut], two[cut:]}}
		if got := readAll(t, c); !reflect.DeepEqual(got, want) {
			t.Fatalf("split at %d: decoded frames differ from the reference", cut)
		}
	}
}

// TestFrameReaderOneReadPerSegment is the reader's acceptance count: N frames
// that arrived in one segment cost one Read (the read-length-then-read-body
// loop this reader replaced made 2N).
func TestFrameReaderOneReadPerSegment(t *testing.T) {
	const n = 50
	stream := mixedStream(t, n, 32)
	if len(stream) > readBufSize {
		t.Fatalf("%d bytes do not fit one read", len(stream))
	}
	c := &segConn{segs: [][]byte{stream}}
	fr := newFrameReader(c)
	var f Frame
	for i := 0; i < n; i++ {
		_, fresh, err := fr.next(&f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fresh != (i == 0) {
			t.Fatalf("frame %d: fresh = %v", i, fresh)
		}
	}
	if c.reads != 1 {
		t.Fatalf("%d frames in one segment took %d Reads, want 1", n, c.reads)
	}
}

// TestFrameReaderGrows: a frame larger than the buffer round-trips, and so
// does the small one behind it.
func TestFrameReaderGrows(t *testing.T) {
	big := make([]byte, readBufSize+1000)
	rand.New(rand.NewSource(1)).Read(big)
	stream, err := AppendRequest(nil, 1, 0, []ReqOp{{Code: 1, Key: 1, Data: big}})
	if err != nil {
		t.Fatal(err)
	}
	if stream, err = AppendResponse(stream, 2, 0, []RespOp{{U: 7, HasData: true, Data: []byte("small")}}); err != nil {
		t.Fatal(err)
	}
	want := decodeAll(t, stream)
	if got := readAll(t, &segConn{segs: [][]byte{stream}}); !reflect.DeepEqual(got, want) {
		t.Fatal("decoded frames differ from the reference")
	}
}

// TestFrameLifetime holds both ends of a link to the reader's aliasing
// contract: a decoded frame points into a buffer the next read overwrites, so
// whatever outlives the request for the next frame must have been copied out.
func TestFrameLifetime(t *testing.T) {
	// Client side: Pending.resolve's results own their bytes.
	first, second := []byte("first burst's payload"), []byte("second")
	r1, _ := AppendResponse(nil, 1, 0, []RespOp{{U: 1, HasData: true, Data: first}})
	r2, _ := AppendResponse(nil, 2, 0, []RespOp{{U: 2, HasData: true, Data: second}})
	fr := newFrameReader(&segConn{segs: [][]byte{r1, r2}, poison: true})
	var f Frame
	if _, _, err := fr.next(&f); err != nil {
		t.Fatal(err)
	}
	p := &Pending{n: 1, done: make(chan struct{})}
	p.resolve(&f)
	aliased := f.Resp[0].Data
	if _, _, err := fr.next(&f); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(aliased, first) {
		t.Fatal("the second read left the first frame's bytes alone: the test poisons nothing")
	}
	if got := p.res[0].P.([]byte); !bytes.Equal(got, first) {
		t.Fatalf("resolved result changed under the next read: %q", got)
	}

	// Serving side: the echo handler's results alias the request frame, and
	// each response is encoded before the read that overwrites it.
	c := &segConn{poison: true}
	var want [][]byte
	for i := 0; i < 8; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, 40+i)
		want = append(want, data)
		req, err := AppendRequest(nil, uint32(i), 0, []ReqOp{{Code: 1, Key: uint64(i), Data: data}})
		if err != nil {
			t.Fatal(err)
		}
		c.segs = append(c.segs, req)
	}
	s := NewServer(nil, 1, []int{0}, &echoHandler{})
	s.wg.Add(1)
	s.serveConn(c)
	got := decodeAll(t, c.out.Bytes())
	if len(got) != 1+len(want) || got[0].Type != FrameHello {
		t.Fatalf("server wrote %d frames", len(got))
	}
	for i, data := range want {
		if r := got[1+i]; r.Type != FrameResponse || r.Seq != uint32(i) || !bytes.Equal(r.Resp[0].Data, data) {
			t.Fatalf("response %d: %+v", i, r)
		}
	}
}

// loopConn replays one stream forever, as much per Read as fits.
type loopConn struct {
	stream []byte
	off    int
}

func (c *loopConn) Read(p []byte) (int, error) {
	n := copy(p, c.stream[c.off:])
	c.off = (c.off + n) % len(c.stream)
	return n, nil
}

// TestFrameReaderAllocPin: in steady state — buffer at size, Frame's slices
// warm — reading allocates nothing, across refills and tail moves alike.
func TestFrameReaderAllocPin(t *testing.T) {
	const n = 1000
	fr := newFrameReader(&loopConn{stream: mixedStream(t, n, 64)})
	var f Frame
	pass := func() {
		for i := 0; i < n; i++ {
			if _, _, err := fr.next(&f); err != nil {
				panic(err)
			}
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("frame reader allocates %v per %d frames", allocs, n)
	}
}

// FuzzFrameReader feeds arbitrary bytes through arbitrary read boundaries:
// the reader never panics, and frame by frame it returns what DecodeFrame
// returns at the same offset of the whole stream — the same frame, or an
// error where DecodeFrame has one.
func FuzzFrameReader(f *testing.F) {
	req, _ := goldenRequest()
	resp, _ := goldenResponse()
	f.Add(req, []byte{1})
	f.Add(resp, []byte{3, 200})
	f.Add(goldenHello(), []byte{})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0, 0}, []byte{2})
	f.Add(append(append([]byte{}, req...), resp...), []byte{5, 60, 1})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		// cuts are segment lengths (0 stands for 256); the rest of the
		// stream follows the last cut as one segment.
		c := &segConn{}
		rest := stream
		for _, n := range cuts {
			seg := int(n)
			if seg == 0 {
				seg = 256
			}
			if seg >= len(rest) {
				break
			}
			c.segs = append(c.segs, rest[:seg:seg])
			rest = rest[seg:]
		}
		if len(rest) > 0 {
			c.segs = append(c.segs, rest)
		}
		fr := newFrameReader(c)
		var got, want Frame
		for off := 0; ; {
			n, _, err := fr.next(&got)
			wn, werr := DecodeFrame(stream[off:], &want)
			if err != nil {
				if werr == nil {
					t.Fatalf("offset %d: reader fails with %v on a frame DecodeFrame accepts", off, err)
				}
				return
			}
			if werr != nil {
				t.Fatalf("offset %d: reader returned a frame DecodeFrame rejects: %v", off, werr)
			}
			if g, w := cloneFrame(&got), cloneFrame(&want); n != wn || !reflect.DeepEqual(g, w) {
				t.Fatalf("offset %d: reader decoded %+v (%d bytes), DecodeFrame %+v (%d bytes)", off, g, n, w, wn)
			}
			off += n
		}
	})
}
