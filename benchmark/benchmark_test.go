package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   int64
		wantOK bool
	}{
		{1000, 0.50, 500, true},
		{1000, 0.99, 990, true},   // exactly 10 samples beyond
		{999, 0.99, 990, false},   // ceil(989.01) = 990: only 9 beyond
		{1000, 0.999, 999, false}, // one sample beyond
		{10010, 0.999, 10000, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, %v) = %d, %v; want %d, %v", tc.n, tc.q, got, ok, tc.want, tc.wantOK)
		}
	}
}

// fakeClock advances only when told to, so a stall can be injected exactly.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }
func (c *fakeClock) yield()     { c.t += 1000 }

// stallingClient answers every exchange in service ns, except that exchange
// number stallAt takes stall ns.
type stallingClient struct {
	clk                     *fakeClock
	service, stall, stallAt int64
	calls                   int64
}

func (c *stallingClient) exchange(ops []op, _ *tally, _ bool) {
	c.clk.t += c.service
	if c.calls == c.stallAt {
		c.clk.t += c.stall
	}
	c.calls++
	for i := range ops {
		ops[i].done = c.clk.t
	}
}
func (c *stallingClient) populate(uint64, int, int) error { return nil }
func (c *stallingClient) close()                          {}

func TestPacerChargesStallToOpsDueDuringIt(t *testing.T) {
	const (
		interval = 10_000    // one op every 10 us
		service  = 2_000     // answered in 2 us
		stall    = 5_000_000 // one 5 ms stall
		stallAt  = 100       // in the 101st exchange
		count    = 1000
	)
	clk := &fakeClock{}
	c := &stallingClient{clk: clk, service: service, stall: stall, stallAt: stallAt}
	w := &workload{keys: 1 << 10, valueSize: 16}
	var tl tally
	runPaced(clk, c, newOpGen(w, 1), 1, 0, interval, count*interval, &tl)

	if tl.ops != count || len(tl.lat) != count || tl.failed != 0 {
		t.Fatalf("ops=%d samples=%d failed=%d, want %d, %d, 0", tl.ops, len(tl.lat), tl.failed, count, count)
	}
	stallEnd := int64(stallAt*interval + service + stall)
	charged, late := 0, int64(0)
	for k, lat := range tl.lat {
		due := int64(k * interval)
		switch {
		case k < stallAt:
			if lat != service {
				t.Fatalf("op %d before the stall: latency %d, want %d", k, lat, service)
			}
		case due < stallEnd:
			// Due while the system was stalled: it could not complete
			// before the stall ended, and its wait is counted from due.
			if lat < stallEnd-due {
				t.Fatalf("op %d due at %d during the stall ending at %d: latency %d < %d", k, due, stallEnd, lat, stallEnd-due)
			}
			charged++
			if stallEnd-due > lateAfter+service {
				late++
			}
		}
	}
	if want := stall / interval; charged < int(want) {
		t.Fatalf("%d ops charged with the stall, want at least %d", charged, want)
	}
	if tl.late < late {
		t.Fatalf("late = %d, want at least the %d ops sent over 1 ms after due", tl.late, late)
	}
	if last := tl.lat[count-1]; last != service {
		t.Fatalf("the backlog never cleared: last op's latency %d, want %d", last, service)
	}
}

func TestPacerFailsWhatItCannotSend(t *testing.T) {
	clk := &fakeClock{}
	c := &stallingClient{clk: clk, service: 1000, stall: 10 * pacedGrace, stallAt: 0}
	var tl tally
	runPaced(clk, c, newOpGen(&workload{keys: 16, valueSize: 16}, 1), 1, 0, 1e6, 100e6, &tl)
	if tl.ops != 100 || tl.failed != 99 {
		t.Fatalf("ops=%d failed=%d, want 100 attempted of which the 99 never sent failed", tl.ops, tl.failed)
	}
	if v, _ := percentile(tl.lat[1:], 0.5); v != failedLatency {
		t.Fatalf("a failed op must count as slower than any percentile, got %d", v)
	}
}

func TestSelfTime(t *testing.T) {
	parent := rawSpan{start: 0, end: 100}
	for _, tc := range []struct {
		name     string
		children []rawSpan
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []rawSpan{{start: 10, end: 30}}, 80},
		{"overlapping children count once", []rawSpan{{start: 20, end: 50}, {start: 10, end: 30}}, 60},
		{"child sticking out is clipped", []rawSpan{{start: 90, end: 120}, {start: -5, end: 5}}, 85},
		{"child outside", []rawSpan{{start: 100, end: 130}}, 100},
		{"nested child adds nothing", []rawSpan{{start: 10, end: 60}, {start: 20, end: 30}}, 50},
	} {
		if got := selfNs(parent, tc.children); got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestJoinSessions(t *testing.T) {
	requests := []rawSpan{
		{key: 7, start: 100, end: 200},
		{key: 7, start: 110, end: 210}, // same hot key in flight twice
		{key: 9, start: 300, end: 400}, // its session span was dropped
	}
	sessions := []rawSpan{
		{key: 7, start: 50, end: 60}, // an unsampled earlier request's
		{key: 7, start: 120, end: 130},
		{key: 7, start: 150, end: 160},
		{key: 9, start: 390, end: 450}, // ends after the request: not its child
	}
	joined, orphans := joinSessions(requests, sessions)
	if len(joined) != 2 || orphans != 1 {
		t.Fatalf("joined %d, orphans %d; want 2, 1", len(joined), orphans)
	}
	if joined[0].session.start != 120 || joined[1].session.start != 150 {
		t.Fatalf("children %d, %d; want the spans starting at 120 and 150", joined[0].session.start, joined[1].session.start)
	}
	if joined[0].id == joined[1].id {
		t.Fatal("two requests share an id")
	}
}

func TestValuesAreCheckedByteForByte(t *testing.T) {
	v := newValues(42, 128)
	buf := make([]byte, 128)
	for _, key := range []uint64{1, 255, 256, 1 << 17} {
		got := v.fill(buf, key)
		if !v.check(got, key) {
			t.Fatalf("key %d: own value rejected", key)
		}
		if v.check(got, key+1) {
			t.Fatalf("key %d: value accepted for key %d", key, key+1)
		}
		got[100] ^= 1
		if v.check(got, key) {
			t.Fatalf("key %d: a flipped bit went unnoticed", key)
		}
		if v.check(got[:127], key) {
			t.Fatalf("key %d: a short value went unnoticed", key)
		}
	}
	if other := newValues(43, 128); other.check(v.fill(buf, 1), 1) {
		t.Fatal("another seed's pattern accepted")
	}
}

func TestSameSeedSameOps(t *testing.T) {
	w := findWorkload("frontdoor-write")
	a, b := newOpGen(w, streamSeed(5, streamPaced, 1, 0)), newOpGen(w, streamSeed(5, streamPaced, 1, 0))
	other := newOpGen(w, streamSeed(6, streamPaced, 1, 0))
	same := true
	for i := 0; i < 1000; i++ {
		var x, y, z op
		a.next(&x)
		b.next(&y)
		other.next(&z)
		if x != y {
			t.Fatalf("op %d differs under one seed: %+v, %+v", i, x, y)
		}
		same = same && x == z
	}
	if same {
		t.Fatal("two seeds drew the same 1000 ops")
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestManifestMatchesBenchmarkJSON: every workload and metric name the program
// emits is in BENCHMARK.json with the same unit, direction and bound, and the
// other way round, and all of them are well formed.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", m.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v", m.Paths)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %q: %q", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}

	same := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			name(d.name)
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
			if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
				t.Errorf("%s %s: malformed unit %q or direction %q", kind, d.name, d.unit, d.better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s has a bound", kind, d.name)
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd, true)
	same("per_layer", m.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, p := range printed {
		if !nameRE.MatchString(p.name) || !unitRE.MatchString(p.unit) {
			t.Errorf("printed metric %q (%q) is malformed", p.name, p.unit)
		}
	}
}

// TestSmoke runs the real thing briefly: the in-process workload untraced, and
// the front door traced, whose self-time table must add up.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("opens stores and sockets")
	}
	// The traced run writes out/ under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, tc := range []struct {
		workload string
		traced   bool
		defs     []metricDef
	}{
		{"inproc-read", false, endToEnd},
		{"frontdoor-read", true, perLayer},
	} {
		res, err := runWorkload(findWorkload(tc.workload), 1, 1.2, tc.traced)
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", tc.workload, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(tc.defs) {
			t.Errorf("%s: %d metrics, want %d", tc.workload, len(res.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			got, ok := res.Metrics[d.name]
			if !ok || got.Unit != d.unit {
				t.Errorf("%s: metric %s missing or in %q", tc.workload, d.name, got.Unit)
			}
			if !tc.traced && !(got.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v", tc.workload, d.name, got.Value)
			}
		}
	}
}
