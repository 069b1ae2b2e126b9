package core

import (
	"testing"
	"time"
)

// TestRegistryAllocPins pins the op registry's read side: resolving wire
// codes and function identities on the remote delegation hot path
// allocates nothing (the copy-on-write table makes lookups plain map
// reads).
func TestRegistryAllocPins(t *testing.T) {
	rt, err := New(Config{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(time.Second)
	if err := rt.RegisterOp(codePut, remotePut); err != nil {
		t.Fatal(err)
	}
	var sinkPtr uintptr
	var sinkCode uint16
	if n := testing.AllocsPerRun(500, func() {
		sinkPtr += fnptr(remotePut)
		if rt.opByCode(codePut) == nil {
			panic("registered op lost")
		}
		c, ok := rt.codeOf(remotePut)
		if !ok {
			panic("registered code lost")
		}
		sinkCode += c
	}); n != 0 {
		t.Fatalf("registry lookups allocate %v/op", n)
	}
	_, _ = sinkPtr, sinkCode
}
