package wire

import (
	"errors"
	"io"
)

// readBufSize is a frame reader's initial buffer: room for a full burst of
// 1 KiB values, so the buffer grows only for bursts of larger payloads.
const readBufSize = 16 << 10

// frameReader decodes the frames of one connection's inbound stream. The
// arrival of a segment is one wakeup of the goroutine reading the socket, and
// each wakeup costs one Read: next decodes every complete frame the buffer
// holds before it reads again, so a pipelined peer's N frames in one segment
// cost one syscall, and a lone frame costs one, not a length read and a body
// read. Both ends of a link read through it — on the sending side the dial
// (the hello) and then whoever holds the connection's reader role
// (pconn.read), on the serving side Server.serveConn.
//
// A decoded Frame sub-slices the reader's buffer and is valid until the next
// call to next, which may move or overwrite the bytes behind it. The buffer
// is reused for the connection's lifetime and grows only for a frame larger
// than itself, so steady-state reading allocates nothing.
type frameReader struct {
	c    io.Reader
	buf  []byte
	r, w int // buf[r:w] is read but not yet decoded
}

func newFrameReader(c io.Reader) *frameReader {
	return &frameReader{c: c, buf: make([]byte, readBufSize)}
}

// next decodes the stream's next frame into f and returns its encoded size.
// fresh reports whether the call had to read from the connection — that is,
// whether f is the first frame of a new arrival, the reader's once-per-read
// signal for its caller's liveness clock. A stream that ends, a length
// outside the wire limits and a frame DecodeFrame rejects all return an
// error; the stream is unusable afterwards. A read that passes the
// connection's deadline returns its error too, but keeps what was read: the
// next call carries on where it stopped.
func (fr *frameReader) next(f *Frame) (size int, fresh bool, err error) {
	for {
		size, err = FrameLen(fr.buf[fr.r:fr.w])
		if err == nil && fr.w-fr.r >= size {
			_, err = DecodeFrame(fr.buf[fr.r:fr.r+size], f)
			fr.r += size
			return size, fresh, err
		}
		if err != nil && !errors.Is(err, ErrShort) {
			return 0, fresh, err
		}
		// Short of a frame, or (size 0) of its 4-byte length prefix.
		if err = fr.fill(max(size, 4)); err != nil {
			return 0, fresh, err
		}
		fresh = true
	}
}

// fill makes room for a frame of need bytes starting at r, then reads once.
// The undecoded tail moves to the front of the buffer when the frame would
// not fit behind it, and the buffer is replaced only when the frame would not
// fit at all.
func (fr *frameReader) fill(need int) error {
	if fr.r == fr.w {
		fr.r, fr.w = 0, 0
	}
	if fr.r+need > len(fr.buf) {
		tail := fr.buf[fr.r:fr.w]
		if need > len(fr.buf) {
			fr.buf = make([]byte, need)
		}
		fr.w = copy(fr.buf, tail)
		fr.r = 0
	}
	n, err := fr.c.Read(fr.buf[fr.w:])
	fr.w += n
	if n == 0 && err != nil {
		return err
	}
	return nil
}
