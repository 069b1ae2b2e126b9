package obs

import (
	"reflect"
	"strings"
	"testing"
)

// Each counter family is declared once — Totals, ServerCounters,
// PeerCounters — and the Counter indices, Recorder.Snapshot's two roll-up
// loops and Snapshot.Delta are derived from the declaration: offsets and
// loops over the struct's words. These tests check the derived code field
// by field, so a field the word loops would miss or misplace (a non-uint64
// counter, a gauge inside a family) fails here rather than reading wrong in
// a report.

// TestCounterRollupConservation adds each Counter on partition 1 and
// checks it lands in exactly one Totals field, a different one per
// counter, counted both in PerPartition[1] and in Totals.
func TestCounterRollupConservation(t *testing.T) {
	const n = 7
	owner := map[string]Counter{}
	for c := Counter(0); c < NumCounters; c++ {
		r := NewRecorder(1, 2)
		r.Add(0, 1, c, n)
		s := r.Snapshot()
		part := reflect.ValueOf(s.PerPartition[1].Totals)
		total := reflect.ValueOf(s.Totals)
		var hit []string
		for i := 0; i < part.NumField(); i++ {
			name := part.Type().Field(i).Name
			pv, tv := part.Field(i).Uint(), total.Field(i).Uint()
			if pv == 0 && tv == 0 {
				continue
			}
			hit = append(hit, name)
			if pv != n || tv != n {
				t.Errorf("counter %d: %s reads %d per partition and %d in Totals, want %d in both", c, name, pv, tv, n)
			}
		}
		if len(hit) != 1 {
			t.Errorf("counter %d landed in %d Totals fields %v, want exactly one", c, len(hit), hit)
			continue
		}
		if prev, dup := owner[hit[0]]; dup {
			t.Errorf("counters %d and %d both roll up into Totals.%s", prev, c, hit[0])
		}
		owner[hit[0]] = c
	}
}

// deltaKept names the integer fields Snapshot.Delta keeps at their
// current value: gauges and identity labels. Every other integer field of
// Totals, PartitionMetrics, ServerMetrics and PeerMetrics is a counter
// and must be subtracted.
var deltaKept = map[string]bool{
	"Workers": true, "RingOccupancy": true,
	"Peer": true, "Parts": true, "Pending": true, "CurrConns": true,
	"Partition": true,
}

// TestDeltaSubtractsEveryCounter fills every integer field of two
// snapshots with distinct values and checks Delta field by field: a
// counter reads cur − prev, a gauge or label reads cur. A counter missed
// by a hand-written sub reads 0 and fails.
func TestDeltaSubtractsEveryCounter(t *testing.T) {
	build := func(scale, offset uint64) Snapshot {
		s := Snapshot{PerPartition: make([]PartitionMetrics, 1), Peers: make([]PeerMetrics, 1)}
		k := uint64(0)
		walkInts(reflect.ValueOf(&s).Elem(), "", func(_ string, v reflect.Value) {
			k++
			if v.CanUint() {
				v.SetUint(scale*k + offset)
			} else {
				v.SetInt(int64(scale*k + offset))
			}
		})
		return s
	}
	cur, prev := build(3, 100), build(1, 0)
	d := cur.Delta(prev)
	want := map[string]int64{}
	walkInts(reflect.ValueOf(&cur).Elem(), "", func(path string, v reflect.Value) { want[path] = intOf(v) })
	walkInts(reflect.ValueOf(&prev).Elem(), "", func(path string, v reflect.Value) {
		if !deltaKept[path[strings.LastIndex(path, ".")+1:]] {
			want[path] -= intOf(v)
		}
	})
	walkInts(reflect.ValueOf(&d).Elem(), "", func(path string, v reflect.Value) {
		if got := intOf(v); got != want[path] {
			t.Errorf("Delta %s = %d, want %d", path, got, want[path])
		}
	})
}

// walkInts visits every integer field reachable from v through the
// counter-bearing parts of a Snapshot (structs, embedded structs and the
// PerPartition / Peers slices), with its dotted path. Latency and Bursts
// carry histograms with their own Delta and are left to the other tests.
func walkInts(v reflect.Value, path string, fn func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Name == "Latency" || f.Name == "Bursts" {
				continue
			}
			walkInts(v.Field(i), path+"."+f.Name, fn)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			walkInts(v.Index(i), path, fn)
		}
	case reflect.Int, reflect.Int64, reflect.Uint64:
		fn(path, v)
	}
}

func intOf(v reflect.Value) int64 {
	if v.CanUint() {
		return int64(v.Uint())
	}
	return v.Int()
}
