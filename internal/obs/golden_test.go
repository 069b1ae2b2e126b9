package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The golden tests pin the reporting surface byte for byte: Snapshot.String,
// Delta(...).String and the JSON encoding of a Snapshot whose every counter
// of the three families (runtime, front door, peer link) holds a distinct
// value. A refactor of how the counters are declared or rolled up must leave
// all three files unchanged.

// goldenCounters lists the runtime counters; the value recorded for each
// follows from its place here, not from its index, so the fill does not
// depend on the block layout.
var goldenCounters = []Counter{
	LocalExec, RemoteSend, AsyncSend, Served, RingFull, Rescued, Stalls,
	Panics, Abandoned, RingScansSkipped, DoorbellWakes, RemoteOps,
	RemoteBytes, PeerStalls, Parks, Wakes, ArenaAcquires, ArenaFallbacks,
	UnattendedExec,
}

// goldenSnapshot builds a snapshot through the live recording surfaces —
// a Recorder and a ServerStats — plus two peer entries, scaling every value
// by scale so two calls give a later and an earlier snapshot.
func goldenSnapshot(scale uint64) Snapshot {
	const parts = 3
	r := NewRecorder(2, parts)
	for i, c := range goldenCounters {
		for p := 0; p < parts; p++ {
			r.Add(p%2, p, c, scale*uint64(100*(i+1)+p))
		}
	}
	for i := uint64(0); i < scale; i++ {
		r.Observe(0, HistLocalExec, 150*time.Nanosecond)
		r.Observe(1, HistSyncDelegation, 3*time.Microsecond)
		r.Observe(0, HistServed, 900*time.Nanosecond)
		r.Observe(1, HistServed, 70*time.Microsecond)
		r.ObserveBurst(0, 1)
		r.ObserveBurst(1, 5)
	}
	s := r.Snapshot()
	s.Totals.DedupReplays = 17 * scale
	for i := range s.PerPartition {
		s.PerPartition[i].Workers = i + 1
		s.PerPartition[i].RingOccupancy = 10 + i
	}

	var st ServerStats
	fillByName(reflect.ValueOf(&st).Elem(), scale, 1000)
	st.CurrConns.Store(5)
	s.Server = st.Snapshot()

	s.Peers = make([]PeerMetrics, 2)
	for i := range s.Peers {
		fillByName(reflect.ValueOf(&s.Peers[i]).Elem(), scale, uint64(2000+500*i))
		s.Peers[i].Peer = i
		s.Peers[i].Addr = fmt.Sprintf("10.0.0.%d:7070", i+1)
		s.Peers[i].Parts = 2 - i
		s.Peers[i].Pending = 3 + i
	}
	return s
}

// fillByName sets every integer field reachable from v, live atomics
// included, to scale × (base + a value hashed from the field's name) — so a
// field's value does not depend on field order, on whether it sits in an
// embedded struct, or on which other fields exist, and the values of one
// struct's fields are distinct before and after Delta.
func fillByName(v reflect.Value, scale, base uint64) {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		if fv.Kind() == reflect.Struct && f.Type.PkgPath() != "sync/atomic" {
			fillByName(fv, scale, base)
			continue
		}
		h := fnv.New32a()
		h.Write([]byte(f.Name))
		n := scale * (base + uint64(h.Sum32()%1000))
		switch p := fv.Addr().Interface().(type) {
		case *atomic.Uint64:
			p.Store(n)
		case *atomic.Int64:
			p.Store(int64(n))
		default:
			if fv.CanUint() {
				fv.SetUint(n)
			} else if fv.CanInt() {
				fv.SetInt(int64(n))
			}
		}
	}
}

// flatJSON renders a JSON document as sorted "path=value" lines, so key
// order may move while every key and value stays pinned.
func flatJSON(t *testing.T, data []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var lines []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				walk(path+"."+k, e)
			}
		case []any:
			for i, e := range v {
				walk(fmt.Sprintf("%s[%d]", path, i), e)
			}
		default:
			lines = append(lines, fmt.Sprintf("%s=%v", path, v))
		}
	}
	walk("", doc)
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs; got:\n%s", file, got)
	}
}

func TestGoldenSnapshotString(t *testing.T) {
	checkGolden(t, "testdata/snapshot.golden", goldenSnapshot(3).String()+"\n")
}

func TestGoldenDeltaString(t *testing.T) {
	cur, prev := goldenSnapshot(3), goldenSnapshot(1)
	checkGolden(t, "testdata/delta.golden", cur.Delta(prev).String()+"\n")
}

func TestGoldenSnapshotJSON(t *testing.T) {
	data, err := json.Marshal(goldenSnapshot(3))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/snapshot_json.golden", flatJSON(t, data))
}
