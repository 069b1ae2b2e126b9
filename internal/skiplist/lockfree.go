package skiplist

import "sync/atomic"

// lfRef is an atomically-replaceable (successor, marked) pair for one level
// of a tower — the same AtomicMarkableReference realization the Michael
// list uses, applied per level as in the Fraser / Herlihy-Lev-Shavit
// lock-free skip list.
type lfRef struct {
	next   *lfNode
	marked bool
}

// lfNode is a lock-free skip-list node.
type lfNode struct {
	key uint64
	val uint64
	ref []atomic.Pointer[lfRef] // one (next, marked) box per level
}

func newLFNode(key, val uint64, level int) *lfNode {
	return &lfNode{key: key, val: val, ref: make([]atomic.Pointer[lfRef], level)}
}

func (n *lfNode) topLevel() int { return len(n.ref) }

// LockFree is the lock-free skip list ("lf-f" in the paper's Figure 12,
// after Fraser's and the Herlihy-Lev wait-free-contains designs). Lookups
// are wait-free; inserts and removes are lock-free with helping.
type LockFree struct {
	head *lfNode
	tail *lfNode
	gen  *levelGen
}

// NewLockFree creates an empty skip list.
func NewLockFree() *LockFree {
	head := newLFNode(0, 0, maxLevel)
	tail := newLFNode(^uint64(0), 0, maxLevel)
	tailRef := &lfRef{}
	for i := 0; i < maxLevel; i++ {
		tail.ref[i].Store(tailRef)
		head.ref[i].Store(&lfRef{next: tail})
	}
	return &LockFree{head: head, tail: tail, gen: newLevelGen(2)}
}

// find locates key, filling preds/succs and physically unlinking marked
// nodes it encounters (helping). Returns whether an unmarked bottom-level
// node with the key was found.
func (s *LockFree) find(key uint64, preds, succs *[maxLevel]*lfNode) bool {
retry:
	for {
		pred := s.head
		for lvl := maxLevel - 1; lvl >= 0; lvl-- {
			predRef := pred.ref[lvl].Load()
			cur := predRef.next
			for {
				curRef := cur.ref[lvl].Load()
				for curRef.marked {
					// Help unlink cur at this level — but only through an
					// unmarked pred. predRef may be marked (pred was reached
					// from the level above, or reloaded below, while its own
					// removal was under way), and swapping an unmarked box
					// over it would put a removed node back in the list.
					// From the head, pred itself is met as a marked cur.
					if predRef.marked || !pred.ref[lvl].CompareAndSwap(predRef, &lfRef{next: curRef.next}) {
						continue retry
					}
					predRef = pred.ref[lvl].Load()
					cur = predRef.next
					if cur == nil {
						continue retry
					}
					curRef = cur.ref[lvl].Load()
				}
				if cur.key < key {
					pred, predRef = cur, curRef
					cur = curRef.next
					continue
				}
				break
			}
			preds[lvl] = pred
			succs[lvl] = cur
		}
		return succs[0].key == key
	}
}

// Lookup is wait-free: pure traversal, membership decided by the bottom-
// level mark.
func (s *LockFree) Lookup(key uint64) (uint64, bool) {
	pred := s.head
	var cur *lfNode
	for lvl := maxLevel - 1; lvl >= 0; lvl-- {
		cur = pred.ref[lvl].Load().next
		for cur.key < key {
			pred = cur
			cur = pred.ref[lvl].Load().next
		}
	}
	if cur.key == key && !cur.ref[0].Load().marked {
		return cur.val, true
	}
	return 0, false
}

// Insert adds key->val if absent: link at the bottom level with CAS (the
// linearization point), then build the tower upwards.
func (s *LockFree) Insert(key, val uint64) bool {
	topLevel := s.gen.next()
	var preds, succs [maxLevel]*lfNode
	for {
		if s.find(key, &preds, &succs) {
			return false
		}
		n := newLFNode(key, val, topLevel)
		for lvl := 0; lvl < topLevel; lvl++ {
			n.ref[lvl].Store(&lfRef{next: succs[lvl]})
		}
		// Bottom-level CAS makes the node logically present.
		pred, succ := preds[0], succs[0]
		predRef := pred.ref[0].Load()
		if predRef.marked || predRef.next != succ {
			continue
		}
		if !pred.ref[0].CompareAndSwap(predRef, &lfRef{next: n}) {
			continue
		}
		// Link the remaining levels, re-finding on interference.
		for lvl := 1; lvl < topLevel; lvl++ {
			for {
				nRef := n.ref[lvl].Load()
				if nRef.marked || n.ref[0].Load().marked {
					return true // being removed already; stop linking
				}
				pred, succ := preds[lvl], succs[lvl]
				if nRef.next != succ {
					if !n.ref[lvl].CompareAndSwap(nRef, &lfRef{next: succ}) {
						return true // concurrently marked
					}
				}
				predRef := pred.ref[lvl].Load()
				if !predRef.marked && predRef.next == succ &&
					pred.ref[lvl].CompareAndSwap(predRef, &lfRef{next: n}) {
					break
				}
				s.find(key, &preds, &succs)
				if succs[0] != n {
					return true // our node was removed mid-build
				}
			}
		}
		return true
	}
}

// Remove deletes key if present: mark the tower top-down, the bottom-level
// mark being the linearization point, then help unlink via find.
func (s *LockFree) Remove(key uint64) bool {
	var preds, succs [maxLevel]*lfNode
	if !s.find(key, &preds, &succs) {
		return false
	}
	victim := succs[0]
	// Mark upper levels.
	for lvl := victim.topLevel() - 1; lvl >= 1; lvl-- {
		for {
			ref := victim.ref[lvl].Load()
			if ref.marked {
				break
			}
			if victim.ref[lvl].CompareAndSwap(ref, &lfRef{next: ref.next, marked: true}) {
				break
			}
		}
	}
	// Bottom level: whoever lands this CAS owns the removal.
	for {
		ref := victim.ref[0].Load()
		if ref.marked {
			return false // another remover won
		}
		if victim.ref[0].CompareAndSwap(ref, &lfRef{next: ref.next, marked: true}) {
			s.find(key, &preds, &succs) // physical unlink via helping
			return true
		}
	}
}

// Size counts unmarked bottom-level elements.
func (s *LockFree) Size() int {
	n := 0
	for cur := s.head.ref[0].Load().next; cur != s.tail; {
		ref := cur.ref[0].Load()
		if !ref.marked {
			n++
		}
		cur = ref.next
	}
	return n
}

// Keys returns unmarked keys in ascending order.
func (s *LockFree) Keys() []uint64 {
	var out []uint64
	for cur := s.head.ref[0].Load().next; cur != s.tail; {
		ref := cur.ref[0].Load()
		if !ref.marked {
			out = append(out, cur.key)
		}
		cur = ref.next
	}
	return out
}
