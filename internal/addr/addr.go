// Package addr defines the content address of an instance (F, B): a
// two-level SHA-256 hash tree with one hash per leaf, a fixed range of
// leafSize elements of F or of B, and a root over those hashes. Leaf and
// node hashes are domain-separated, as in RFC 6962's Merkle trees
// (https://www.rfc-editor.org/rfc/rfc6962#section-2.1):
//
//	leaf = SHA-256(0x00 || v[lo] || ... || v[hi-1])
//	root = SHA-256(0x01 || version || len(F) || len(B) || leafSize ||
//	               F's leaf hashes || B's leaf hashes)
//
// Every value, length and tag word is 8 bytes little-endian, and the
// address is the root in lowercase hex (64 characters). Of computes it in
// one streamed pass; a Tree keeps the leaf hashes, so that after point
// edits only the leaves they touched and the root are hashed again.
//
// Each element is hashed as 8 bytes whatever its range: Of runs before
// validation, and a narrower encoding would give an invalid instance the
// address of a valid one (DESIGN.md section 9).
package addr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

const (
	// leafSize is the number of elements one leaf covers. An edit
	// rehashes 8*leafSize bytes, and the root hashes 32 bytes per leaf.
	leafSize = 4096
	// version tags the root's preimage, so a later layout cannot share an
	// address with this one.
	version = 1
	// leafTag and nodeTag domain-separate leaf and root preimages.
	leafTag = 0x00
	nodeTag = 0x01
	// chunk is the stack buffer values stream through into the hasher:
	// 4 KiB writes amortize the hasher's per-call cost, and no call holds
	// a leaf-sized buffer.
	chunk = 4096
)

// Of returns the address of (f, b), hashing every leaf once.
func Of(f, b []int) string {
	// Instances of up to two leaves per half keep their leaf hashes on the
	// stack.
	var small [4 * sha256.Size]byte
	sums := small[:0]
	if k := sha256.Size * (leaves(len(f)) + leaves(len(b))); k > len(small) {
		sums = make([]byte, 0, k)
	}
	var buf [chunk]byte
	for _, half := range [2][]int{f, b} {
		for lo := 0; lo < len(half); lo += leafSize {
			sum := leafSum(&buf, half[lo:min(lo+leafSize, len(half))], nil)
			sums = append(sums, sum[:]...)
		}
	}
	return rootOf(len(f), len(b), sums)
}

// Tree is the address of an instance that changes by point edits. It
// keeps every leaf's hash, so that after edits Root hashes only the
// leaves they touched and the root: O(edits*leafSize + n/leafSize)
// instead of O(n). The zero Tree hashes every leaf at its first Root.
type Tree struct {
	sums    []byte // sha256.Size bytes per leaf: F's leaves, then B's
	stale   []bool // per leaf: touched since its hash was taken
	fLeaves int
	root    string // the address; "" once a leaf is stale
}

// TouchF marks the leaf holding element i of F for rehashing at the next
// Root. Before the first Root it does nothing.
func (t *Tree) TouchF(i int) { t.touch(i / leafSize) }

// TouchB is TouchF for B.
func (t *Tree) TouchB(i int) { t.touch(t.fLeaves + i/leafSize) }

func (t *Tree) touch(k int) {
	if t.stale != nil {
		t.stale[k] = true
		t.root = ""
	}
}

// Root returns the address of (f, b), which must hold the values the tree
// last hashed except where TouchF or TouchB marked. A negative b[i]
// stands for wide[-1-b[i]].
func (t *Tree) Root(f, b []int32, wide []int) string {
	if t.root != "" {
		return t.root
	}
	if t.stale == nil {
		t.fLeaves = leaves(len(f))
		k := t.fLeaves + leaves(len(b))
		t.sums = make([]byte, sha256.Size*k)
		t.stale = make([]bool, k)
		for i := range t.stale {
			t.stale[i] = true
		}
	}
	var buf [chunk]byte
	for k, stale := range t.stale {
		if !stale {
			continue
		}
		var sum [sha256.Size]byte
		if k < t.fLeaves {
			lo := k * leafSize
			sum = leafSum(&buf, f[lo:min(lo+leafSize, len(f))], nil)
		} else {
			lo := (k - t.fLeaves) * leafSize
			sum = leafSum(&buf, b[lo:min(lo+leafSize, len(b))], wide)
		}
		copy(t.sums[k*sha256.Size:], sum[:])
		t.stale[k] = false
	}
	t.root = rootOf(len(f), len(b), t.sums)
	return t.root
}

// Bytes returns the memory the tree holds once built, the root's hex
// included whether or not it is current.
func (t *Tree) Bytes() int {
	if t.stale == nil {
		return 0
	}
	return cap(t.sums) + cap(t.stale) + 2*sha256.Size
}

// leaves returns the number of leaves covering n elements.
func leaves(n int) int {
	return (n + leafSize - 1) / leafSize
}

// rootOf returns the address whose root covers sums, the leaf hashes of
// an F of nf elements and then of a B of nb.
func rootOf(nf, nb int, sums []byte) string {
	h := sha256.New()
	var head [1 + 4*8]byte
	head[0] = nodeTag
	for i, v := range [4]int{version, nf, nb, leafSize} {
		binary.LittleEndian.PutUint64(head[1+8*i:], uint64(v))
	}
	h.Write(head[:])
	h.Write(sums)
	var sum [sha256.Size]byte
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], h.Sum(sum[:0]))
	return string(out[:])
}

// leafSum returns the hash of the leaf holding vals, streamed through
// buf. With wide non-nil, a negative value v stands for wide[-1-v], as
// in incr's B classes; otherwise each value is hashed as it is.
func leafSum[E int | int32](buf *[chunk]byte, vals []E, wide []int) (sum [sha256.Size]byte) {
	h := sha256.New()
	h.Write([]byte{leafTag})
	for len(vals) > 0 {
		m := min(len(vals), chunk/8)
		if wide == nil {
			for i, v := range vals[:m] {
				binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
			}
		} else {
			for i, v := range vals[:m] {
				w := int(v)
				if w < 0 {
					w = wide[-1-w]
				}
				binary.LittleEndian.PutUint64(buf[8*i:], uint64(w))
			}
		}
		h.Write(buf[:8*m])
		vals = vals[m:]
	}
	h.Sum(sum[:0])
	return sum
}
