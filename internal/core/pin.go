package core

import (
	"runtime"

	"dps/internal/affinity"
)

// Core pinning. The paper's serving discipline assumes a partition's shard
// stays hot in one core's private cache, which only holds if the serving
// OS thread stops migrating. A pinned thread locks its goroutine to its OS
// thread (runtime.LockOSThread) and restricts that thread to one CPU from
// its locality's topology.Assign plan; Unregister restores the original
// affinity mask and unlocks. Everything degrades to a no-op where
// affinity control is unavailable (see internal/affinity).

// Pin pins the calling goroutine's OS thread to a CPU owned by the
// thread's locality, and reports whether a pin took effect. It requires
// Config.PinServers and a platform with affinity support;
// otherwise it is a no-op returning false. Call it from the goroutine
// that will actually use the Thread — a dedicated serving loop calls Pin
// as its first act, so pooled registration (register on one goroutine,
// serve on another) pins the serving goroutine, not the registering one.
// Pinning an already-pinned thread is a no-op returning true.
//
//dps:domain=sender
func (t *Thread) Pin() bool {
	t.checkLive()
	if !t.rt.cfg.PinServers {
		return false
	}
	return t.pinSelf(t.rt.nextCPU(t.locality))
}

// Pinned reports whether the thread's OS thread is currently pinned.
func (t *Thread) Pinned() bool { return t.pinnedOn() >= 0 }

// pinSelf locks the calling goroutine to its OS thread and restricts the
// thread to cpu, recording the previous mask for unpinSelf. cpu < 0 (no
// plan) and affinity errors degrade to an unpinned no-op.
func (t *Thread) pinSelf(cpu int) bool {
	if t.pinnedCPU != 0 {
		return true
	}
	if cpu < 0 || !affinity.Supported() {
		return false
	}
	runtime.LockOSThread()
	mask, err := affinity.CurrentMask()
	if err != nil {
		runtime.UnlockOSThread()
		return false
	}
	if err := affinity.Pin(cpu); err != nil {
		runtime.UnlockOSThread()
		return false
	}
	t.prevMask = mask
	t.pinnedCPU = cpu + 1
	t.rt.pinned.Add(1)
	return true
}

// unpinSelf restores the OS thread's affinity mask and unlocks the
// goroutine. Safe to call unpinned; called from Unregister on the owning
// goroutine (the same one that pinned, per the Thread contract).
func (t *Thread) unpinSelf() {
	if t.pinnedCPU == 0 {
		return
	}
	affinity.Unpin(t.prevMask)
	t.prevMask = affinity.Mask{}
	t.pinnedCPU = 0
	runtime.UnlockOSThread()
	t.rt.pinned.Add(-1)
}

// pinnedOn returns the CPU the thread is pinned to, -1 when unpinned.
func (t *Thread) pinnedOn() int { return t.pinnedCPU - 1 }
