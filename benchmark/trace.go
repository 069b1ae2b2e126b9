package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"dps/internal/mcd"
)

// Spans are recorded from the benchmark's own files only, around calls into a
// layer's public functions: `request` by the socket client (write of the
// request to its verified response) and `session` by a decorator around the
// mcd.Store handed to server.Config.Store (or used directly by the in-process
// workloads). Spans live in preallocated buffers and are written at exit.

// sampleEvery is the sampling period of root spans: one request in sixteen on
// the socket workloads, one session call in sixteen on the in-process ones.
const sampleEvery = 16

// rawSpan is one recorded interval. key is the uint64 the store saw: on socket
// workloads the FNV-1a hash of the protocol key, which is what lets a session
// span be joined to its request without touching the server.
type rawSpan struct {
	key        uint64
	start, end int64
}

func (s rawSpan) dur() int64 { return s.end - s.start }

// spanBuf is one goroutine's preallocated span buffer; it drops, and counts,
// what does not fit instead of growing inside a measured window.
type spanBuf struct {
	spans   []rawSpan
	dropped int64
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]rawSpan, 0, capacity)} }

func (b *spanBuf) add(key uint64, start, end int64) {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, rawSpan{key, start, end})
}

// tracedStore decorates an mcd.Store so every session it hands out records
// `session` spans while on is set. On the socket workloads the server's pooled
// sessions cannot know which requests the client sampled, so they record every
// call (every = 1) and the join keeps the children of sampled requests; the
// in-process workloads sample here (every = sampleEvery).
type tracedStore struct {
	mcd.Store
	on       atomic.Bool
	every    uint64
	capacity int

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracedStore(st mcd.Store, every, capacity int) *tracedStore {
	return &tracedStore{Store: st, every: uint64(every), capacity: capacity}
}

func (t *tracedStore) Session() (mcd.Session, error) {
	s, err := t.Store.Session()
	if err != nil {
		return nil, err
	}
	buf := newSpanBuf(t.capacity)
	t.mu.Lock()
	t.bufs = append(t.bufs, buf)
	t.mu.Unlock()
	return &tracedSession{Session: s, st: t, buf: buf}, nil
}

// sessionSpans returns every recorded session span, ordered by start, and how
// many were dropped.
func (t *tracedStore) sessionSpans() (spans []rawSpan, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		spans = append(spans, b.spans...)
		dropped += b.dropped
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	return spans, dropped
}

// tracedSession is goroutine-exclusive like the session it wraps, so its
// counter and buffer need no synchronisation.
type tracedSession struct {
	mcd.Session
	st  *tracedStore
	buf *spanBuf
	n   uint64
}

func (s *tracedSession) sampled() bool {
	if !s.st.on.Load() {
		return false
	}
	s.n++
	return s.n%s.st.every == 0
}

func (s *tracedSession) Get(key uint64) ([]byte, bool, error) {
	if !s.sampled() {
		return s.Session.Get(key)
	}
	t0 := now()
	v, ok, err := s.Session.Get(key)
	s.buf.add(key, t0, now())
	return v, ok, err
}

func (s *tracedSession) Set(key uint64, val []byte) error {
	if !s.sampled() {
		return s.Session.Set(key, val)
	}
	t0 := now()
	err := s.Session.Set(key, val)
	s.buf.add(key, t0, now())
	return err
}

func (s *tracedSession) SetAsync(key uint64, val []byte) {
	if !s.sampled() {
		s.Session.SetAsync(key, val)
		return
	}
	t0 := now()
	s.Session.SetAsync(key, val)
	s.buf.add(key, t0, now())
}

// selfNs is a span's self time: its duration minus the part of its interval
// that its children cover. Children may overlap each other and may stick out
// of the parent; both are clipped.
func selfNs(parent rawSpan, children []rawSpan) int64 {
	cs := append([]rawSpan(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, edge := int64(0), parent.start
	for _, c := range cs {
		lo, hi := max(c.start, edge), min(c.end, parent.end)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return parent.dur() - covered
}

// joinedSpan is a sampled request with the session span it caused.
type joinedSpan struct {
	id      uint64
	request rawSpan
	session rawSpan
}

// joinSessions pairs each sampled request with the earliest unclaimed session
// span on the same key that lies inside the request's interval. Two in-flight
// requests for one hot key may swap children; both are the same kind of call,
// so the self-time means are unaffected. Requests with no child (its span was
// dropped) are returned in orphans.
func joinSessions(requests []rawSpan, sessions []rawSpan) (joined []joinedSpan, orphans int) {
	byKey := make(map[uint64][]rawSpan)
	for _, s := range sessions {
		byKey[s.key] = append(byKey[s.key], s)
	}
	sort.Slice(requests, func(i, j int) bool { return requests[i].start < requests[j].start })
	for i, r := range requests {
		list := byKey[r.key]
		for len(list) > 0 && list[0].start < r.start {
			list = list[1:]
		}
		if len(list) == 0 || list[0].end > r.end {
			byKey[r.key] = list
			orphans++
			continue
		}
		joined = append(joined, joinedSpan{id: uint64(i + 1), request: r, session: list[0]})
		byKey[r.key] = list[1:]
	}
	return joined, orphans
}

func meanDur(spans []rawSpan) float64 {
	if len(spans) == 0 {
		return 0
	}
	var sum int64
	for _, s := range spans {
		sum += s.dur()
	}
	return float64(sum) / float64(len(spans))
}

// writeTrace writes one workload's spans as JSON: a header, then one span per
// line. Spans of one request share its id; a session span under a request
// names it as parent.
func writeTrace(dir, name string, seed int64, joined []joinedSpan, roots []rawSpan, dropped int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"sample_every\":%d,\"dropped\":%d,\"clock\":\"ns since process start\",\"spans\":[\n",
		name, seed, sampleEvery, dropped)
	sep := ""
	span := func(id uint64, name, parent string, s rawSpan) {
		fmt.Fprintf(w, "%s{\"id\":%d,\"name\":%q,\"parent\":%q,\"key\":%d,\"start_ns\":%d,\"end_ns\":%d}",
			sep, id, name, parent, s.key, s.start, s.end)
		sep = ",\n"
	}
	for _, j := range joined {
		span(j.id, "request", "", j.request)
		span(j.id, "session", "request", j.session)
	}
	for i, s := range roots {
		span(uint64(i+1), "session", "", s)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
