package server

import (
	"bufio"
	"hash/fnv"
	"io"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dps/internal/mcd"
	"dps/internal/obs"
)

// peerStatsStore reports fixed peer-link metrics beside its store's own.
type peerStatsStore struct {
	mcd.Store
	peers []obs.PeerMetrics
}

func (s peerStatsStore) Metrics() obs.Snapshot {
	m := s.Store.Metrics()
	m.Peers = s.peers
	return m
}

// TestStatsGolden pins the stats reply's STAT names and values, line for
// line, with every front-door counter and every peer-link counter holding a
// distinct value, so a change to how the counters are declared cannot move
// a line.
func TestStatsGolden(t *testing.T) {
	store, err := mcd.Open("stock", mcd.Config{Partitions: 2, MemLimit: 8 << 20, MaxThreads: 16})
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]obs.PeerMetrics, 2)
	for i := range peers {
		fillByName(reflect.ValueOf(&peers[i]).Elem(), uint64(2000+500*i))
		peers[i].Peer = i
	}
	srv := serveStore(t, peerStatsStore{store, peers}, Config{})
	fillByName(reflect.ValueOf(srv.Stats()).Elem(), 1000)

	nc := dial(t, srv)
	if _, err := io.WriteString(nc, "stats\r\n"); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	br := bufio.NewReader(nc)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "END\r\n" {
			break
		}
		got.WriteString(strings.TrimSuffix(line, "\r\n") + "\n")
	}
	want, err := os.ReadFile("testdata/stats.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("stats reply differs from testdata/stats.golden; got:\n%s", got.String())
	}
}

// fillByName sets every integer field reachable from v, live atomics
// included, to base + a value hashed from the field's name, whatever struct
// the field is declared in and whichever other fields exist.
func fillByName(v reflect.Value, base uint64) {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		if fv.Kind() == reflect.Struct && f.Type.PkgPath() != "sync/atomic" {
			fillByName(fv, base)
			continue
		}
		h := fnv.New32a()
		h.Write([]byte(f.Name))
		n := base + uint64(h.Sum32()%1000)
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
