package core

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// History checker. Every operation of a run is a read or a write of a
// per-key register. The calling thread stamps each call's invoke and
// response from one shared atomic clock, and each operation stamps its own
// apply interval from the same clock while it executes, on whichever thread
// that is. The checker then asks of each key:
//
//  1. was every operation applied exactly once, inside its call;
//  2. is the key's history linearizable with every linearization point inside
//     its operation's apply interval (a register: a read returns the last
//     write before it);
//  3. did each sender's operations on the key apply in the order it issued
//     them — which covers fire-and-forget operations and read-your-writes.
//
// The runtime carries no hook for this: the operations record themselves.

// histOp is one operation of a recorded history.
type histOp struct {
	sender int
	key    uint64
	write  bool
	val    uint64 // the value written, or the value the read returned

	invoke, response uint64 // call interval, stamped by the caller

	applies    atomic.Int32  // times the operation executed
	start, end atomic.Uint64 // apply interval of its first execution
	got        atomic.Uint64 // what a read saw
}

// history is a run's operations plus the clock and registers they share.
type history struct {
	clock atomic.Uint64
	mu    sync.Mutex
	ops   []*histOp
}

// histShard is a partition's registers and the run they belong to. Its lock
// makes each read or write atomic, so whoever executes an operation — the
// sender inline, a serving thread, a sender draining its own ring, a peer
// server's thread — applies it at one point inside the interval the operation
// stamps around the lock.
type histShard struct {
	h   *history
	mu  sync.Mutex
	reg map[uint64]uint64
}

// codeHist names histApply for the peer links of the run that crosses processes.
const codeHist uint16 = 9

func (h *history) now() uint64 { return h.clock.Add(1) }

// add records a new operation and returns its index, the op argument.
func (h *history) add(o *histOp) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ops = append(h.ops, o)
	return uint64(len(h.ops) - 1)
}

func (h *history) get(i uint64) *histOp {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ops[i]
}

// histApply is the one Op of a history run: args.U[0] indexes the operation in
// the run of the partition's shard. It is a top-level function, so it can be
// registered for the peer links.
func histApply(p *Partition, key uint64, args *Args) Result {
	s := p.Data().(*histShard)
	h := s.h
	o := h.get(args.U[0])
	start := h.now()
	s.mu.Lock()
	v := s.reg[key]
	if o.write {
		s.reg[key] = o.val
		v = o.val
	}
	s.mu.Unlock()
	end := h.now()
	if o.applies.Add(1) == 1 {
		o.start.Store(start)
		o.end.Store(end)
		o.got.Store(v)
	}
	return Result{U: v}
}

// applyCounts summarizes a run that never finished: how many operations have
// not been applied yet, and those applied more than once. It reads only what
// is fixed at issue and the atomic apply count, as the run goes on.
func (h *history) applyCounts() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	pending, dup := 0, []string{}
	for _, o := range h.ops {
		switch n := o.applies.Load(); {
		case n == 0:
			pending++
		case n > 1 && len(dup) < 5:
			dup = append(dup, fmt.Sprintf("sender %d key %d write=%t applied %d times", o.sender, o.key, o.write, n))
		}
	}
	return fmt.Sprintf("%d of %d operations unapplied; applied more than once: %v", pending, len(h.ops), dup)
}

// check returns the history's violations, at most a few per key.
func (h *history) check() []string {
	byKey := map[uint64][]*histOp{}
	var keys []uint64
	for _, o := range h.ops {
		if byKey[o.key] == nil {
			keys = append(keys, o.key)
		}
		byKey[o.key] = append(byKey[o.key], o)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var bad []string
	for _, k := range keys {
		bad = append(bad, checkKey(k, byKey[k])...)
	}
	return bad
}

func (o *histOp) String() string {
	kind := "read"
	if o.write {
		kind = "write"
	}
	return fmt.Sprintf("sender %d %s(%d) call [%d,%d] apply [%d,%d]×%d",
		o.sender, kind, o.val, o.invoke, o.response, o.start.Load(), o.end.Load(), o.applies.Load())
}

func checkKey(key uint64, ops []*histOp) []string {
	var bad []string
	for _, o := range ops {
		switch n := o.applies.Load(); {
		case n != 1:
			bad = append(bad, fmt.Sprintf("key %d: applied %d times: %v", key, n, o))
		case o.start.Load() < o.invoke || o.end.Load() > o.response:
			bad = append(bad, fmt.Sprintf("key %d: applied outside its call: %v", key, o))
		case !o.write && o.got.Load() != o.val:
			bad = append(bad, fmt.Sprintf("key %d: read returned %d, applied seeing %d: %v", key, o.val, o.got.Load(), o))
		}
	}
	if len(bad) > 0 {
		return bad
	}
	// Per sender, in issue order (the invoke stamps of one sender increase),
	// each operation's apply interval ends before the next one's begins.
	bySender := map[int][]*histOp{}
	for _, o := range ops {
		bySender[o.sender] = append(bySender[o.sender], o)
	}
	for _, seq := range bySender {
		sort.Slice(seq, func(i, j int) bool { return seq[i].invoke < seq[j].invoke })
		for i := 1; i < len(seq); i++ {
			if seq[i-1].end.Load() >= seq[i].start.Load() {
				bad = append(bad, fmt.Sprintf("key %d: applied out of issue order: %v, then %v", key, seq[i-1], seq[i]))
				break
			}
		}
	}
	if !linearizable(ops) {
		bad = append(bad, fmt.Sprintf("key %d: no linearization of its %d operations inside their apply intervals", key, len(ops)))
	}
	return bad
}

// linearizable searches for a total order of ops, each at a point inside its
// apply interval, in which every read returns the last write before it (0
// before any write). The candidates at each step are the operations whose
// interval starts before every remaining interval ends; visited states
// (operations placed, register value) are not searched twice.
func linearizable(ops []*histOp) bool {
	sort.Slice(ops, func(i, j int) bool { return ops[i].start.Load() < ops[j].start.Load() })
	done := make([]bool, len(ops))
	seen := map[string]bool{}
	state := func(val uint64) string {
		var b strings.Builder
		for _, d := range done {
			if d {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		fmt.Fprintf(&b, "/%d", val)
		return b.String()
	}
	var search func(placed int, val uint64) bool
	search = func(placed int, val uint64) bool {
		if placed == len(ops) {
			return true
		}
		st := state(val)
		if seen[st] {
			return false
		}
		seen[st] = true
		minEnd := ^uint64(0)
		for i, o := range ops {
			if !done[i] && o.end.Load() < minEnd {
				minEnd = o.end.Load()
			}
		}
		for i, o := range ops {
			if done[i] || o.start.Load() > minEnd {
				continue
			}
			next := val
			if o.write {
				next = o.val
			} else if o.val != val {
				continue
			}
			done[i] = true
			ok := search(placed+1, next)
			done[i] = false
			if ok {
				return true
			}
		}
		return false
	}
	return search(0, 0)
}

// histSender is one calling thread: it alternates Idle with one call of its
// row's form, over the run's key set, recording what it issues. id is unique
// in the run, whichever runtime th belongs to.
type histSender struct {
	h      *history
	id     int
	th     *Thread
	keys   []uint64
	rng    *rand.Rand
	writes uint64 // values written are unique per run: sender<<32 | writes
	// fired are fire-and-forget operations whose response is the next Drain.
	fired []*histOp
	// session marks Idle after every call, as an mcd session does, so a
	// fire-and-forget burst stays open across marks.
	session bool
	err     error
}

// called ends a call of the sender's: under the session rule, with the mark.
func (s *histSender) called() {
	if s.session {
		s.th.Idle()
	}
}

func (s *histSender) newOp(write bool) (*histOp, uint64, uint64) {
	return s.newOpOn(write, s.keys[s.rng.Intn(len(s.keys))])
}

func (s *histSender) newOpOn(write bool, key uint64) (*histOp, uint64, uint64) {
	o := &histOp{sender: s.id, key: key, write: write}
	if write {
		s.writes++
		o.val = uint64(s.id+1)<<32 | s.writes
	}
	return o, s.h.add(o), o.key
}

func (s *histSender) done(o *histOp, res Result) {
	o.response = s.h.now()
	if res.Err != nil && s.err == nil {
		s.err = fmt.Errorf("%v: %w", o, res.Err)
	}
	if !o.write {
		o.val = res.U
	}
}

func (s *histSender) sync() {
	o, idx, key := s.newOp(s.rng.Intn(2) == 0)
	o.invoke = s.h.now()
	res := s.th.ExecuteSync(key, histApply, Args{U: [4]uint64{idx}})
	s.called()
	s.done(o, res)
}

func (s *histSender) wave() {
	var cs [6]Completion
	var ops [6]*histOp
	n := 1 + s.rng.Intn(len(cs))
	for i := 0; i < n; i++ {
		o, idx, key := s.newOp(s.rng.Intn(2) == 0)
		ops[i] = o
		o.invoke = s.h.now()
		s.th.ExecuteInto(&cs[i], key, histApply, Args{U: [4]uint64{idx}})
		s.called()
	}
	for i := n - 1; i >= 0; i-- {
		s.done(ops[i], cs[i].Result())
	}
}

func (s *histSender) async() {
	for n := 1 + s.rng.Intn(6); n > 0; n-- {
		o, idx, key := s.newOp(true)
		o.invoke = s.h.now()
		s.th.ExecuteAsync(key, histApply, Args{U: [4]uint64{idx}})
		s.called()
		s.fired = append(s.fired, o)
	}
}

// alternate fires two writes at keys of different partitions, so the sender
// holds an open burst toward two destinations at once, then reads each key
// synchronously: every read must see its own write, which one of those bursts
// carried.
func (s *histSender) alternate() {
	rt, last := s.th.Runtime(), -1
	written := make([]uint64, 0, 2)
	for len(written) < 2 {
		key := s.keys[s.rng.Intn(len(s.keys))]
		if part := rt.PartitionForKey(key).ID(); part != last {
			last = part
			o, idx, _ := s.newOpOn(true, key)
			o.invoke = s.h.now()
			s.th.ExecuteAsync(key, histApply, Args{U: [4]uint64{idx}})
			s.called()
			s.fired = append(s.fired, o)
			written = append(written, key)
		}
	}
	for _, key := range written {
		o, idx, _ := s.newOpOn(false, key)
		o.invoke = s.h.now()
		res := s.th.ExecuteSync(key, histApply, Args{U: [4]uint64{idx}})
		s.called()
		s.done(o, res)
	}
}

func (s *histSender) drain() {
	s.th.Drain()
	s.called()
	now := s.h.now()
	for _, o := range s.fired {
		o.response = now
	}
	s.fired = s.fired[:0]
}

// histRow is one run of TestHistoryLinearizable.
type histRow struct {
	name string
	form func(s *histSender)
	// peerParts are the partitions two senders of a second process reach
	// through a PeerServer; none when empty. With two, the runtime has a
	// third partition and the senders' frames mix both.
	peerParts []int
	// session runs the senders under an mcd session's rule, Idle after
	// every call, with no dedicated thread.
	session bool
	// partitions, when set, is the partition count of a run without peers,
	// with a sender registered at each locality in turn.
	partitions int
	// rounds, when set, caps the rounds of each sender: a row whose rounds
	// wait out several wire round trips keeps to the others' run time.
	rounds int
}

// runHistory drives senders at both localities of a two-partition runtime
// (at each of row.partitions localities when set, with two keys on each)
// whose locality 1 also has a dedicated ServeWait thread that parks (unless
// the row's senders are sessions), over two keys of each partition. With
// peer partitions, the runtime also serves its partitions on a PeerServer,
// two senders of a second process's runtime join in over the wire
// (peerSenders), and the keys are four of the partitions they reach, split
// evenly; with two peer partitions the runtime has three. Each sender
// alternates Idle and one call of form; the returned history holds every
// operation.
func runHistory(t *testing.T, rounds int, row histRow) *history {
	h := &history{}
	peers := len(row.peerParts) > 0
	cfg := Config{Partitions: max(row.partitions, 1+max(1, len(row.peerParts))), RingDepth: 4, Init: func(*Partition) any {
		return &histShard{h: h, reg: map[uint64]uint64{}}
	}}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	for key := uint64(0); len(keys) < max(4, 2*row.partitions); key++ {
		n := rt.PartitionForKey(key).ID()
		if peers && slices.Contains(row.peerParts, n) && countKeys(rt, keys, n) < 4/len(row.peerParts) ||
			!peers && countKeys(rt, keys, n) < 2 {
			keys = append(keys, key)
		}
	}
	if !row.session {
		_, stop := parkedServer(t, rt, 1, waitParkMin)
		defer stop()
	}

	// Registered up front, so no locality is ever empty while they run.
	var ths []*Thread
	for i := 0; i < 3; i++ {
		th, err := rt.RegisterAt(i % max(2, row.partitions))
		if err != nil {
			t.Fatal(err)
		}
		ths = append(ths, th)
	}
	if peers {
		ths = append(ths, peerSenders(t, rt, cfg, row.peerParts, 2)...)
	}
	senders := make([]*histSender, len(ths))
	for i, th := range ths {
		senders[i] = &histSender{h: h, id: i, th: th, keys: keys, rng: rand.New(rand.NewSource(int64(i + 1))), session: row.session}
	}
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s *histSender) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s.th.Idle()
				if s.rng.Intn(4) == 0 {
					runtime.Gosched()
				}
				row.form(s)
			}
			s.drain()
			// Leave the locality only once every sender is done: a sender
			// still waiting may need this one's locality served.
			s.th.Idle()
		}(s)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		// The senders stay wedged; what the run applied so far still shows.
		t.Fatalf("run wedged after 30s: %s", h.applyCounts())
	}
	for _, s := range senders {
		s.th.Unregister()
		if s.err != nil {
			t.Error(s.err)
		}
	}
	return h
}

// peerSenders serves rt's partitions on a PeerServer and registers n threads
// of a second runtime, built from cfg, that delegates parts to it.
func peerSenders(t *testing.T, rt *Runtime, cfg Config, parts []int, n int) []*Thread {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := rt.NewPeerServer(ln)
	if err != nil {
		t.Fatal(err)
	}
	go ps.Serve()
	cfg.Peers = []Peer{{Addr: ps.Addr().String(), Parts: parts, Timeout: 10 * time.Second}}
	client, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Shutdown(time.Second)
		ps.Close()
	})
	for _, r := range []*Runtime{rt, client} {
		if err := r.RegisterOp(codeHist, histApply); err != nil {
			t.Fatal(err)
		}
	}
	ths := make([]*Thread, n)
	for i := range ths {
		if ths[i], err = client.RegisterAt(0); err != nil {
			t.Fatal(err)
		}
	}
	return ths
}

func countKeys(rt *Runtime, keys []uint64, part int) int {
	n := 0
	for _, k := range keys {
		if rt.PartitionForKey(k).ID() == part {
			n++
		}
	}
	return n
}

// TestHistoryLinearizable: synchronous calls, ExecuteInto waves and
// fire-and-forget bursts with Drain — each form alone, then all mixed — from
// threads that alternate Idle and calls on both localities, toward a locality
// whose dedicated thread parks in ServeWait, leave per-key histories that
// apply every operation once, inside its call, in its sender's issue order,
// and linearize as a register. So do the mixed forms when threads of another
// process send them to the same keys through a PeerServer — also when their
// keys span two of its partitions, so one frame carries operations toward
// both and the server issues each toward its own — and when every
// thread marks Idle after each of its calls, as an mcd session does, with no
// dedicated thread: a fire-and-forget burst then stays open across the mark,
// and the sender's next operation toward that partition must join it or
// queue behind it, never run inline ahead of it. Last, fire-and-forget writes
// that alternate partitions, each followed by a synchronous read of every key
// written, leave a burst open toward each destination at once: over the
// rings of three localities, and with peer senders whose frames mix two
// partitions.
func TestHistoryLinearizable(t *testing.T) {
	mixed := func(s *histSender) {
		switch s.rng.Intn(5) {
		case 0:
			s.sync()
		case 1:
			s.wave()
		case 2:
			s.async()
		case 3:
			s.async()
			s.sync()
		default:
			s.drain()
		}
	}
	alternate := func(s *histSender) {
		s.alternate()
		s.drain()
	}
	rows := []histRow{
		{name: "ExecuteSync", form: (*histSender).sync},
		{name: "ExecuteInto waves", form: (*histSender).wave},
		{name: "ExecuteAsync and Drain", form: func(s *histSender) {
			s.async()
			s.drain()
		}},
		{name: "mixed", form: mixed},
		{name: "mixed with peer senders", form: mixed, peerParts: []int{1}},
		{name: "peer senders, frames mixing partitions", form: mixed, peerParts: []int{1, 2}},
		{name: "Idle after each call", form: mixed, session: true},
		{name: "async writes alternating partitions, then sync reads", form: alternate, partitions: 3},
		{name: "async writes alternating partitions, then sync reads, peer senders", form: alternate, peerParts: []int{1, 2}, rounds: 150},
	}
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			n := rounds
			if row.rounds > 0 {
				n = min(n, row.rounds)
			}
			h := runHistory(t, n, row)
			if bad := h.check(); len(bad) > 0 {
				if len(bad) > 5 {
					bad = append(bad[:5], fmt.Sprintf("... and %d more", len(bad)-5))
				}
				t.Errorf("%d ops, violations:\n%s", len(h.ops), strings.Join(bad, "\n"))
			}
		})
	}
}
