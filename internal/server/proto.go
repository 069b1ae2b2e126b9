// Package server is the network front door: a TCP server speaking the
// memcached text protocol in front of the internal/mcd variants through
// the unified mcd.Store API. Per-connection goroutines parse pipelined
// requests with bufio and feed them to a borrowed store session; noreply
// writes ride the runtime's asynchronous burst machinery and are drained at
// pipeline batch boundaries, so one network read of N commands becomes a
// handful of published delegation slots (§4.4).
package server

import (
	"errors"
	"fmt"
)

// opcode classifies a parsed protocol command.
type opcode uint8

// Protocol commands. opGets is opGet plus the cas unique in each VALUE
// line; opAdd is opSet guarded on prior absence.
const (
	opNone opcode = iota
	opGet
	opGets
	opSet
	opAdd
	opDelete
	opStats
	opVersion
	opQuit
)

// Protocol limits (the memcached wire-format constants).
const (
	// maxKeyLen is the longest key the text protocol accepts.
	maxKeyLen = 250
	// maxGetKeys bounds keys per multi-get line (and sizes command.keys'
	// preallocation so parsing never grows it).
	maxGetKeys = 64
)

// Parse errors, mapped to protocol error lines by the connection loop.
var (
	// errUnknownCommand maps to "ERROR".
	errUnknownCommand = errors.New("unknown command")
	// errBadFormat maps to "CLIENT_ERROR bad command line format".
	errBadFormat = errors.New("bad command line format")
	// errBadKey maps to "CLIENT_ERROR bad key" (too long, empty, or
	// containing control characters / spaces).
	errBadKey = errors.New("bad key")
	// errTooManyKeys maps to "CLIENT_ERROR too many keys".
	errTooManyKeys = errors.New("too many keys")
)

// command is a parsed request line. It is reused across commands on a
// connection: keys alias the connection's read buffer and are only valid
// until the next buffered read, so storage commands hash the key and copy it
// into the entry buffer before reading the data block, and queued gets copy
// theirs into the wave.
type command struct {
	op      opcode
	keys    [][]byte
	flags   uint32
	exptime uint64
	bytes   int
	noreply bool
}

// newCommand returns a command whose keys slice never needs to grow during
// parsing.
func newCommand() *command {
	return &command{keys: make([][]byte, 0, maxGetKeys)}
}

// parseCommand parses one request line (CRLF already stripped) into cmd.
// The hot path of the server: it allocates nothing, tokenizing in place and
// aliasing key tokens into line.
func parseCommand(line []byte, cmd *command) error {
	cmd.op = opNone
	// Reslice to zero length reuses the preallocated backing array.
	cmd.keys = cmd.keys[:0]
	cmd.flags = 0
	cmd.exptime = 0
	cmd.bytes = 0
	cmd.noreply = false

	name, rest := nextToken(line)
	switch {
	case tokenIs(name, "get"), tokenIs(name, "gets"):
		if tokenIs(name, "gets") {
			cmd.op = opGets
		} else {
			cmd.op = opGet
		}
		for {
			var key []byte
			key, rest = nextToken(rest)
			if key == nil {
				break
			}
			if !validKey(key) {
				return errBadKey
			}
			if len(cmd.keys) == maxGetKeys {
				return errTooManyKeys
			}
			// Append stays within the cap reserved by newCommand.
			cmd.keys = append(cmd.keys, key)
		}
		if len(cmd.keys) == 0 {
			return errBadFormat
		}
		return nil
	case tokenIs(name, "set"), tokenIs(name, "add"):
		if tokenIs(name, "add") {
			cmd.op = opAdd
		} else {
			cmd.op = opSet
		}
		return parseStorage(rest, cmd)
	case tokenIs(name, "delete"):
		cmd.op = opDelete
		var key []byte
		key, rest = nextToken(rest)
		if !validKey(key) {
			return errBadKey
		}
		// Append stays within the cap reserved by newCommand.
		cmd.keys = append(cmd.keys, key)
		return parseNoreply(rest, cmd)
	case tokenIs(name, "stats"):
		cmd.op = opStats
		return nil
	case tokenIs(name, "version"):
		cmd.op = opVersion
		return nil
	case tokenIs(name, "quit"):
		cmd.op = opQuit
		return nil
	default:
		return errUnknownCommand
	}
}

// parseStorage parses the "<key> <flags> <exptime> <bytes> [noreply]" tail
// shared by set and add. exptime is parsed for wire compatibility but not
// enforced (the variants evict by memory pressure, not TTL).
func parseStorage(rest []byte, cmd *command) error {
	key, rest := nextToken(rest)
	if !validKey(key) {
		return errBadKey
	}
	// Append stays within the cap reserved by newCommand.
	cmd.keys = append(cmd.keys, key)
	tok, rest := nextToken(rest)
	flags, ok := parseUint(tok)
	if !ok || flags > 0xffffffff {
		return errBadFormat
	}
	cmd.flags = uint32(flags)
	tok, rest = nextToken(rest)
	exptime, ok := parseUint(tok)
	if !ok {
		return errBadFormat
	}
	cmd.exptime = exptime
	tok, rest = nextToken(rest)
	size, ok := parseUint(tok)
	if !ok || size > 1<<30 {
		return errBadFormat
	}
	cmd.bytes = int(size)
	return parseNoreply(rest, cmd)
}

// parseNoreply consumes an optional trailing "noreply" token.
func parseNoreply(rest []byte, cmd *command) error {
	tok, rest := nextToken(rest)
	if tok == nil {
		return nil
	}
	if !tokenIs(tok, "noreply") {
		return errBadFormat
	}
	cmd.noreply = true
	if tok, _ = nextToken(rest); tok != nil {
		return errBadFormat
	}
	return nil
}

// nextToken splits off the next space-delimited token, skipping leading
// spaces. A nil token means the line is exhausted.
func nextToken(b []byte) (tok, rest []byte) {
	i := 0
	for i < len(b) && b[i] == ' ' {
		i++
	}
	if i == len(b) {
		return nil, nil
	}
	j := i
	for j < len(b) && b[j] != ' ' {
		j++
	}
	return b[i:j], b[j:]
}

// tokenIs compares a token to a literal without converting either.
func tokenIs(tok []byte, lit string) bool {
	if len(tok) != len(lit) {
		return false
	}
	for i := 0; i < len(lit); i++ {
		if tok[i] != lit[i] {
			return false
		}
	}
	return true
}

// parseUint is a manual base-10 parser ([]byte → uint64 without the
// string conversion strconv would force).
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (^uint64(0)-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// validKey enforces the protocol's key rules: 1..250 bytes, no control
// characters or spaces.
func validKey(key []byte) bool {
	if len(key) == 0 || len(key) > maxKeyLen {
		return false
	}
	for _, c := range key {
		if c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// ---- key hashing and entry encoding ----

// hashKey maps a protocol key to the uint64 key space (FNV-1a, matching
// dps.HashBytes). Different protocol keys can collide on one uint64 key, so
// entries embed the full key and readers verify it (decodeEntry).
func hashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Stored entry layout: 4-byte big-endian flags, 2-byte big-endian key
// length, the key bytes, then the data block. The embedded key
// disambiguates FNV collisions; the flags round-trip the client's opaque
// word as the protocol requires.
const entryHeaderLen = 6

// entrySize is the stored size of a (key, data) pair.
func entrySize(keyLen, dataLen int) int { return entryHeaderLen + keyLen + dataLen }

// putEntryHeader writes the header and key into buf (sized by entrySize)
// and returns the offset where the data block begins.
func putEntryHeader(buf []byte, flags uint32, key []byte) int {
	buf[0] = byte(flags >> 24)
	buf[1] = byte(flags >> 16)
	buf[2] = byte(flags >> 8)
	buf[3] = byte(flags)
	buf[4] = byte(len(key) >> 8)
	buf[5] = byte(len(key))
	copy(buf[entryHeaderLen:], key)
	return entryHeaderLen + len(key)
}

// decodeEntry splits a stored entry into flags, key and data. ok is false
// for buffers too short to be entries (foreign data under a colliding
// uint64 key).
func decodeEntry(buf []byte) (flags uint32, key, data []byte, ok bool) {
	if len(buf) < entryHeaderLen {
		return 0, nil, nil, false
	}
	flags = uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3])
	kl := int(buf[4])<<8 | int(buf[5])
	if len(buf) < entryHeaderLen+kl {
		return 0, nil, nil, false
	}
	return flags, buf[entryHeaderLen : entryHeaderLen+kl], buf[entryHeaderLen+kl:], true
}

// entryCAS derives the gets cas unique from the stored entry bytes: a
// content hash, so an unchanged value keeps its cas across reads and any
// rewrite changes it (deterministically — golden tests depend on that).
func entryCAS(entry []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range entry {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// bytesEqual reports a == b without pulling package bytes into the hot
// path's import set.
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// protoError renders an error as its protocol line class for logging.
func protoError(err error) string {
	switch {
	case errors.Is(err, errUnknownCommand):
		return "ERROR"
	case errors.Is(err, errBadKey), errors.Is(err, errBadFormat), errors.Is(err, errTooManyKeys):
		return fmt.Sprintf("CLIENT_ERROR %v", err)
	default:
		return fmt.Sprintf("SERVER_ERROR %v", err)
	}
}
