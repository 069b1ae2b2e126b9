// Package wire is the DPS runtime's second delegation tier: the same
// claim / pack / publish+doorbell / serve / complete protocol the
// in-process rings implement (see package ring), carried across a
// process boundary as length-prefixed frames over TCP.
//
// The mapping is deliberate. A frame is a published slot: the sender
// packs a burst of operations toward one peer process into it (each entry
// names its own partition, so a stream that alternates between the peer's
// partitions still fills whole frames), the single write is the publish,
// and the frame's arrival is the doorbell — the peer's read loop wakes
// on it without scanning anything. The peer decodes the burst and applies
// it through its normal serve path, then a response frame keyed by the
// request's sequence number is the completion toggle. ErrTimeout and
// ErrClosed are the same sentinels the in-process tier uses
// (ring.ErrTimeout / ring.ErrClosed), so the deadline/abandon machinery
// upstream does not care which tier a completion crossed.
//
// # Frame format
//
// All integers are big-endian. Every frame is
//
//	[u32 length] [u8 type] [u32 seq] [u16 nops] [payload]
//
// where length counts everything after the length field itself (so a
// reader frames on 4 bytes + length). Payload by type:
//
//	hello    (type 0): [u32 version] [u32 partitions] [nops × u32 owned]
//	request  (type 1): nops × [u16 code][u8 flags][u32 part][u64 key][4×u64 u][u32 dlen][dlen bytes]
//	response (type 2): nops × [u8 flags][u64 u][u32 dlen][dlen bytes][u16 elen][elen bytes]
//	ping     (type 3): empty — a liveness probe; seq is the probe number
//	pong     (type 4): empty — answers a ping, echoing its seq
//	ident    (type 5): [u64 link id] — names the sending link for dedup
//
// Request flags: bit 0 = fire-and-forget. Response flags: bit 0 = data
// present (distinguishing a nil reference result from an empty one),
// bit 1 = error present (the error's string; the well-known sentinels
// are rehydrated to their canonical identities on the client).
//
// The codec is symmetric and allocation-disciplined: encoders append
// into caller-owned buffers (growth is delegated so steady state reuses
// capacity), the decoder sub-slices payload bytes out of the read buffer
// rather than copying, and malformed or truncated input returns
// ErrCorrupt / ErrShort — never a panic (FuzzDecodeFrame holds it to
// that).
package wire

import (
	"encoding/binary"
	"errors"
)

// Frame types.
const (
	// FrameHello is sent once by the serving side on accept: protocol
	// version, total partition count, and the partitions it owns.
	FrameHello = 0
	// FrameRequest carries a burst of delegated operations.
	FrameRequest = 1
	// FrameResponse carries the matching burst of results.
	FrameResponse = 2
	// FramePing is a client-sent liveness probe on an otherwise idle
	// link; the serving side answers with a pong echoing the seq.
	FramePing = 3
	// FramePong answers a ping. Any inbound frame proves liveness, so
	// the client treats pongs and responses alike for that purpose.
	FramePong = 4
	// FrameIdent is sent once by the client right after the hello: a
	// random 64-bit link identity that, combined with each burst's
	// monotonic seq, lets the server deduplicate retransmitted bursts
	// across reconnects.
	FrameIdent = 5
)

// Version is the protocol version carried in hello frames. Mismatched
// peers refuse the connection rather than misparse each other. v2 added
// ping/pong liveness probes and the ident frame retransmission dedup
// keys on; v3 moved the partition from the frame header into each request
// entry.
const Version = 3

// Wire limits. A decoder rejects anything beyond them before allocating,
// so a corrupt or hostile length field cannot balloon memory.
const (
	// MaxBurst is the most operations one frame may carry — the wire
	// tier's burst capacity (the in-process tier's is ring-slot-bound;
	// frames are elastic so the wire packs deeper to amortize syscalls).
	MaxBurst = 16
	// MaxData bounds one operation's byte-slice argument or result.
	MaxData = 8 << 20
	// MaxFrame bounds a whole frame body (the u32 length field's accepted
	// range); it admits a full burst of maximal entries.
	MaxFrame = 16 + MaxBurst*(ReqOpFixed+MaxData)
)

// Per-frame layout sizes (bytes). ReqOpFixed is exported so the sender's
// byte accounting (obs.RemoteBytes) counts request entries without
// restating the layout.
const (
	hdrSize     = 7  // type + seq + nops, after the length field
	ReqOpFixed  = 51 // one request entry before its data: code + flags + part + key + 4 u64 + dlen
	respOpFixed = 15 // flags + u64 + dlen + elen
)

// Codec errors. Decode failures are static sentinels, not formatted
// errors: the decode path is allocation-free and a flood of corrupt
// frames must not turn into a flood of garbage.
var (
	// ErrShort reports a buffer that ends before the frame does. For
	// stream readers it means "read more"; for DecodeFrame on a complete
	// message it means truncation.
	ErrShort = errors.New("wire: short frame")
	// ErrCorrupt reports a structurally invalid frame: unknown type, a
	// length or count outside the wire limits, or payload that does not
	// add up to the declared size.
	ErrCorrupt = errors.New("wire: corrupt frame")
)

// OpError is a remote operation error that is not one of the canonical
// sentinels: the peer executed the operation and it failed with this
// message. Identity does not survive the hop — only the text does.
type OpError string

func (e OpError) Error() string { return string(e) }

// ReqOp is one request entry: an operation in its transport-neutral form
// (see ring.StagedOp). Part is the entry's own destination partition: a
// frame is a burst toward one peer process, which may mix any of the
// partitions that process serves.
type ReqOp struct {
	Code uint16
	Fire bool
	Part uint32
	Key  uint64
	U    [4]uint64
	Data []byte
}

// RespOp is one response entry: the ring.Result fields that survive a
// process boundary. HasData distinguishes an absent reference result
// (nil) from an empty one. Err is the error text; empty means success.
type RespOp struct {
	U       uint64
	Data    []byte
	HasData bool
	Err     string
}

// Hello is the decoded hello payload.
type Hello struct {
	Version    uint32
	Partitions uint32
	Owned      []uint32
}

// Frame is a decoded frame. Exactly one of Req, Resp, Hello is
// meaningful, selected by Type. Decoding reuses the slices' capacity and
// sub-slices entry data out of the input buffer: the frame is valid only
// until the buffer is overwritten.
type Frame struct {
	Type  byte
	Seq   uint32
	Req   []ReqOp
	Resp  []RespOp
	Hello Hello
	Ident uint64
}

// grow extends b by n bytes, reallocating only when capacity is short —
// the one place encode-path growth is allowed to allocate, so the marked
// encoders above it stay allocation-free once buffers are warm. The new
// bytes are whatever the buffer held before; callers overwrite them.
func grow(b []byte, n int) []byte {
	need := len(b) + n
	if cap(b) >= need {
		return b[:need]
	}
	nb := make([]byte, need, need+need/2)
	copy(nb, b)
	return nb
}

// growReq returns ops with room for n entries, reusing capacity.
func growReq(ops []ReqOp, n int) []ReqOp {
	if cap(ops) < n {
		return make([]ReqOp, n)
	}
	return ops[:n]
}

// growResp returns ops with room for n entries, reusing capacity.
func growResp(ops []RespOp, n int) []RespOp {
	if cap(ops) < n {
		return make([]RespOp, n)
	}
	return ops[:n]
}

// growU32 returns s with room for n entries, reusing capacity.
func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

// putHeader writes the post-length header at off and returns the new
// offset.
func putHeader(b []byte, off int, typ byte, seq uint32, nops int) int {
	b[off] = typ
	binary.BigEndian.PutUint32(b[off+1:], seq)
	binary.BigEndian.PutUint16(b[off+5:], uint16(nops))
	return off + hdrSize
}

// reqSize returns the encoded payload size of a request burst, or -1 if
// it exceeds the wire limits.
func reqSize(ops []ReqOp) int {
	if len(ops) == 0 || len(ops) > MaxBurst {
		return -1
	}
	n := 0
	for i := range ops {
		if len(ops[i].Data) > MaxData {
			return -1
		}
		n += ReqOpFixed + len(ops[i].Data)
	}
	return n
}

// respSize returns the encoded payload size of a response burst, or -1
// if it exceeds the wire limits.
func respSize(ops []RespOp) int {
	if len(ops) == 0 || len(ops) > MaxBurst {
		return -1
	}
	n := 0
	for i := range ops {
		if len(ops[i].Data) > MaxData || len(ops[i].Err) > 0xffff {
			return -1
		}
		n += respOpFixed + len(ops[i].Data) + len(ops[i].Err)
	}
	return n
}

// AppendRequest appends one complete request frame (length prefix
// included) carrying ops, each toward its own Part, and returns the
// extended buffer. The ops' Data bytes are copied into the frame: the
// caller may reuse them as soon as AppendRequest returns. The third
// argument is unused since frames stopped naming one partition; it stays
// because the benchmark module's codec probe passes it.
func AppendRequest(dst []byte, seq, _ uint32, ops []ReqOp) ([]byte, error) {
	size := reqSize(ops)
	if size < 0 {
		return dst, ErrCorrupt
	}
	off := len(dst)
	dst = grow(dst, 4+hdrSize+size)
	binary.BigEndian.PutUint32(dst[off:], uint32(hdrSize+size))
	off = putHeader(dst, off+4, FrameRequest, seq, len(ops))
	for i := range ops {
		off = putReqOp(dst, off, &ops[i])
	}
	return dst, nil
}

// putReqOp writes one request entry at off, data included, and returns the
// new offset: the one encoding of an entry, shared by AppendRequest and
// Link.Stage.
func putReqOp(b []byte, off int, op *ReqOp) int {
	binary.BigEndian.PutUint16(b[off:], op.Code)
	flags := byte(0)
	if op.Fire {
		flags = 1
	}
	b[off+2] = flags
	binary.BigEndian.PutUint32(b[off+3:], op.Part)
	binary.BigEndian.PutUint64(b[off+7:], op.Key)
	binary.BigEndian.PutUint64(b[off+15:], op.U[0])
	binary.BigEndian.PutUint64(b[off+23:], op.U[1])
	binary.BigEndian.PutUint64(b[off+31:], op.U[2])
	binary.BigEndian.PutUint64(b[off+39:], op.U[3])
	binary.BigEndian.PutUint32(b[off+47:], uint32(len(op.Data)))
	return off + ReqOpFixed + copy(b[off+ReqOpFixed:], op.Data)
}

// AppendResponse appends one complete response frame answering request
// seq, and returns the extended buffer.
func AppendResponse(dst []byte, seq uint32, ops []RespOp) ([]byte, error) {
	size := respSize(ops)
	if size < 0 {
		return dst, ErrCorrupt
	}
	off := len(dst)
	dst = grow(dst, 4+hdrSize+size)
	binary.BigEndian.PutUint32(dst[off:], uint32(hdrSize+size))
	off = putHeader(dst, off+4, FrameResponse, seq, len(ops))
	for i := range ops {
		op := &ops[i]
		flags := byte(0)
		if op.HasData {
			flags |= 1
		}
		if op.Err != "" {
			flags |= 2
		}
		dst[off] = flags
		binary.BigEndian.PutUint64(dst[off+1:], op.U)
		binary.BigEndian.PutUint32(dst[off+9:], uint32(len(op.Data)))
		off += 13
		off += copy(dst[off:], op.Data)
		binary.BigEndian.PutUint16(dst[off:], uint16(len(op.Err)))
		off += 2
		off += copy(dst[off:], op.Err)
	}
	return dst, nil
}

// AppendHello appends one complete hello frame declaring the total
// partition count and the partitions this process owns.
func AppendHello(dst []byte, partitions uint32, owned []uint32) ([]byte, error) {
	if len(owned) > MaxBurst*64 {
		return dst, ErrCorrupt
	}
	size := 8 + 4*len(owned)
	off := len(dst)
	dst = grow(dst, 4+hdrSize+size)
	binary.BigEndian.PutUint32(dst[off:], uint32(hdrSize+size))
	off = putHeader(dst, off+4, FrameHello, 0, len(owned))
	binary.BigEndian.PutUint32(dst[off:], Version)
	binary.BigEndian.PutUint32(dst[off+4:], partitions)
	off += 8
	for _, p := range owned {
		binary.BigEndian.PutUint32(dst[off:], p)
		off += 4
	}
	return dst, nil
}

// AppendControl appends one complete ping or pong frame. Control frames
// carry no payload; seq is the probe number (a pong echoes its ping's).
func AppendControl(dst []byte, typ byte, seq uint32) ([]byte, error) {
	if typ != FramePing && typ != FramePong {
		return dst, ErrCorrupt
	}
	off := len(dst)
	dst = grow(dst, 4+hdrSize)
	binary.BigEndian.PutUint32(dst[off:], hdrSize)
	putHeader(dst, off+4, typ, seq, 0)
	return dst, nil
}

// AppendIdent appends one complete ident frame carrying the sending
// link's 64-bit identity.
func AppendIdent(dst []byte, id uint64) ([]byte, error) {
	off := len(dst)
	dst = grow(dst, 4+hdrSize+8)
	binary.BigEndian.PutUint32(dst[off:], hdrSize+8)
	off = putHeader(dst, off+4, FrameIdent, 0, 0)
	binary.BigEndian.PutUint64(dst[off:], id)
	return dst, nil
}

// FrameLen inspects the length prefix of a buffered stream: it returns
// the total frame size (prefix included) once buf holds at least the
// prefix, ErrShort while it does not, and ErrCorrupt if the declared
// length is outside the wire limits. Stream readers use it to size the
// next read; DecodeFrame re-validates.
func FrameLen(buf []byte) (int, error) {
	if len(buf) < 4 {
		return 0, ErrShort
	}
	n := binary.BigEndian.Uint32(buf)
	if n < hdrSize || n > MaxFrame {
		return 0, ErrCorrupt
	}
	return 4 + int(n), nil
}

// DecodeFrame parses one complete frame (length prefix included) from
// the front of buf into f, reusing f's slice capacity, and returns the
// number of bytes consumed. Entry Data sub-slices buf. A buffer ending
// mid-frame returns ErrShort; structural violations return ErrCorrupt.
// Arbitrary input never panics.
func DecodeFrame(buf []byte, f *Frame) (int, error) {
	total, err := FrameLen(buf)
	if err != nil {
		return 0, err
	}
	if len(buf) < total {
		return 0, ErrShort
	}
	b := buf[4:total]
	f.Type = b[0]
	f.Seq = binary.BigEndian.Uint32(b[1:])
	nops := int(binary.BigEndian.Uint16(b[5:]))
	b = b[hdrSize:]
	switch f.Type {
	case FrameHello:
		if len(b) != 8+4*nops {
			return 0, ErrCorrupt
		}
		f.Hello.Version = binary.BigEndian.Uint32(b)
		f.Hello.Partitions = binary.BigEndian.Uint32(b[4:])
		f.Hello.Owned = growU32(f.Hello.Owned, nops)
		for i := 0; i < nops; i++ {
			f.Hello.Owned[i] = binary.BigEndian.Uint32(b[8+4*i:])
		}
	case FrameRequest:
		if nops == 0 || nops > MaxBurst {
			return 0, ErrCorrupt
		}
		f.Req = growReq(f.Req, nops)
		for i := 0; i < nops; i++ {
			if len(b) < ReqOpFixed {
				return 0, ErrCorrupt
			}
			op := &f.Req[i]
			op.Code = binary.BigEndian.Uint16(b)
			if b[2]&^1 != 0 {
				return 0, ErrCorrupt // unknown flag bits: newer peer, refuse to guess
			}
			op.Fire = b[2]&1 != 0
			op.Part = binary.BigEndian.Uint32(b[3:])
			op.Key = binary.BigEndian.Uint64(b[7:])
			op.U[0] = binary.BigEndian.Uint64(b[15:])
			op.U[1] = binary.BigEndian.Uint64(b[23:])
			op.U[2] = binary.BigEndian.Uint64(b[31:])
			op.U[3] = binary.BigEndian.Uint64(b[39:])
			dlen := int(binary.BigEndian.Uint32(b[47:]))
			b = b[ReqOpFixed:]
			if dlen > MaxData || len(b) < dlen {
				return 0, ErrCorrupt
			}
			op.Data = b[:dlen:dlen]
			b = b[dlen:]
		}
		if len(b) != 0 {
			return 0, ErrCorrupt
		}
	case FrameResponse:
		if nops == 0 || nops > MaxBurst {
			return 0, ErrCorrupt
		}
		f.Resp = growResp(f.Resp, nops)
		for i := 0; i < nops; i++ {
			if len(b) < 13 {
				return 0, ErrCorrupt
			}
			op := &f.Resp[i]
			flags := b[0]
			if flags&^3 != 0 {
				return 0, ErrCorrupt // unknown flag bits: newer peer, refuse to guess
			}
			op.U = binary.BigEndian.Uint64(b[1:])
			dlen := int(binary.BigEndian.Uint32(b[9:]))
			b = b[13:]
			if flags&1 == 0 && dlen != 0 {
				return 0, ErrCorrupt
			}
			op.HasData = flags&1 != 0
			if dlen > MaxData || len(b) < dlen {
				return 0, ErrCorrupt
			}
			op.Data = b[:dlen:dlen]
			b = b[dlen:]
			if len(b) < 2 {
				return 0, ErrCorrupt
			}
			elen := int(binary.BigEndian.Uint16(b))
			b = b[2:]
			if len(b) < elen {
				return 0, ErrCorrupt
			}
			if flags&2 != 0 {
				if elen == 0 {
					return 0, ErrCorrupt
				}
				op.Err = bytesToErr(b[:elen])
			} else {
				if elen != 0 {
					return 0, ErrCorrupt
				}
				op.Err = ""
			}
			b = b[elen:]
		}
		if len(b) != 0 {
			return 0, ErrCorrupt
		}
	case FramePing, FramePong:
		if nops != 0 || len(b) != 0 {
			return 0, ErrCorrupt
		}
	case FrameIdent:
		if nops != 0 || f.Seq != 0 || len(b) != 8 {
			return 0, ErrCorrupt
		}
		f.Ident = binary.BigEndian.Uint64(b)
	default:
		return 0, ErrCorrupt
	}
	return total, nil
}

// bytesToErr materializes an error string off the wire. Error frames are
// the exceptional path, so this is the one decode-side copy (the string
// must outlive the read buffer); the well-known sentinel texts are
// interned so steady-state timeout/closed storms still do not allocate.
func bytesToErr(b []byte) string {
	if string(b) == closedText {
		return closedText
	}
	if string(b) == timeoutText {
		return timeoutText
	}
	if string(b) == peerDownText {
		return peerDownText
	}
	return string(b)
}
