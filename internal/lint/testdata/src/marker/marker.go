// Package marker seeds malformed //dps: markers: dpslint's marker rule
// reports unknown marker names, empty owned-by/domain values, and
// duplicated markers instead of silently ignoring them — a misspelled
// marker must never leave the author believing code is checked when it is
// not. The leftover markers of deleted rules are seeded in one package per
// deleted rule (atomicmix, errclass, padcheck, pinned, spinloop, wirealloc).
package marker

// box carries one well-formed and one valueless ownership marker.
type box struct {
	// want(+1) marker "needs a domain name"
	//dps:owned-by=
	bad int

	//dps:owned-by=keeper
	good int
}

// touch accesses its owned field from its declared domain: well-formed
// markers in this package still behave.
//
//dps:domain=keeper
func touch(b *box) {
	b.good++
}

// typo carries a marker name that does not exist; the author thinks the
// function is checked and it is not.
//
// want(+2) marker "unknown marker //dps:noaloc"
//
//dps:noaloc
func typo() {}

// anon declares a domain with no name.
//
// want(+2) marker "needs a domain name"
//
//dps:domain=
func anon() {}

// dup says the same thing twice; one of them is wrong.
//
// want(+3) marker "duplicate //dps:noalloc"
//
//dps:noalloc
//dps:noalloc
func dup() {}
