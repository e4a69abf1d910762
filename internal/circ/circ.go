// Package circ provides algorithms on circular strings: minimal starting
// point (m.s.p., the lexicographically least rotation) and smallest
// repeating prefix. These are the Section 3.1 subproblems of JáJá & Ryu,
// stated there as results of independent interest.
//
// Sequential algorithms (host-side, used as baselines and references):
//
//   - BruteMSP: O(n^2), the correctness oracle for tests.
//   - BoothMSP: Booth's failure-function algorithm, O(n) (cited as [5]).
//   - DuvalMSP: the three-pointer least-rotation algorithm in the style of
//     Shiloach's fast canonization (cited as [17]), O(n).
//   - SmallestRepeatingPrefix: KMP-based period computation, O(n).
//
// The sequential algorithms take any Symbol string: plain ints at the
// public API, int32 inside the linear solver's arena.
//
// Parallel algorithms live in msp_pram.go.
package circ

// Symbol is the element type of a circular string.
type Symbol interface{ ~int | ~int32 }

// BruteMSP returns the minimal starting point of the circular string s by
// comparing all rotations pairwise in O(n^2) time. Among equivalent minimal
// rotations (repeating strings) it returns the smallest index.
func BruteMSP[S Symbol](s []S) int {
	n := len(s)
	if n == 0 {
		return -1
	}
	best := 0
	for j := 1; j < n; j++ {
		for l := 0; l < n; l++ {
			a, b := s[(j+l)%n], s[(best+l)%n]
			if a < b {
				best = j
				break
			}
			if a > b {
				break
			}
		}
	}
	return best
}

// BoothMSP returns the minimal starting point of s in O(n) time using
// Booth's least-rotation algorithm (a KMP failure function over the doubled
// string). Among equivalent minimal rotations it returns the smallest index.
func BoothMSP(s []int) int {
	n := len(s)
	if n == 0 {
		return -1
	}
	f := make([]int, 2*n)
	for i := range f {
		f[i] = -1
	}
	k := 0
	for j := 1; j < 2*n; j++ {
		sj := s[j%n]
		i := f[j-k-1]
		for i != -1 && sj != s[(k+i+1)%n] {
			if sj < s[(k+i+1)%n] {
				k = j - i - 1
			}
			i = f[i]
		}
		if i == -1 && sj != s[k%n] {
			if sj < s[k%n] {
				k = j
			}
			f[j-k] = -1
		} else {
			f[j-k] = i + 1
		}
	}
	return k % n
}

// DuvalMSP returns the minimal starting point of s in O(n) time and O(1)
// extra space with the classic two-candidate three-pointer scan. Among
// equivalent minimal rotations it returns the smallest index.
func DuvalMSP[S Symbol](s []S) int {
	n := len(s)
	if n == 0 {
		return -1
	}
	i, j, k := 0, 1, 0
	for i < n && j < n && k < n {
		a, b := s[(i+k)%n], s[(j+k)%n]
		if a == b {
			k++
			continue
		}
		if a > b {
			i += k + 1
		} else {
			j += k + 1
		}
		if i == j {
			j++
		}
		k = 0
	}
	if i < j {
		return i
	}
	return j
}

// SmallestRepeatingPrefix returns the length p of the shortest prefix P of
// s with P^(n/p) == s. For a primitive (nonrepeating) string it returns n.
// O(n) time via the KMP failure function.
func SmallestRepeatingPrefix[S Symbol](s []S) int {
	return SmallestRepeatingPrefixBuf(s, make([]S, len(s)))
}

// SmallestRepeatingPrefixBuf is SmallestRepeatingPrefix with the failure
// table in fail, a caller-supplied buffer of at least len(s) elements
// whose contents are overwritten. Its entries are prefix lengths, so the
// string's own element type holds them.
func SmallestRepeatingPrefixBuf[S Symbol](s, fail []S) int {
	n := len(s)
	if n == 0 {
		return 0
	}
	fail = fail[:n]
	fail[0] = 0
	for i := 1; i < n; i++ {
		j := fail[i-1]
		for j > 0 && s[i] != s[j] {
			j = fail[j-1]
		}
		if s[i] == s[j] {
			j++
		}
		fail[i] = j
	}
	p := n - int(fail[n-1])
	if n%p == 0 {
		return p
	}
	return n
}

// IsRotationOf reports whether circular strings a and b are cyclic shifts of
// one another, in O(n) time (canonical rotations compared).
func IsRotationOf(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	n := len(a)
	if n == 0 {
		return true
	}
	ia, ib := BoothMSP(a), BoothMSP(b)
	for l := 0; l < n; l++ {
		if a[(ia+l)%n] != b[(ib+l)%n] {
			return false
		}
	}
	return true
}

// Canonical returns the lexicographically least rotation of s as a new
// slice, the canonical form of the circular string.
func Canonical(s []int) []int {
	n := len(s)
	out := make([]int, n)
	if n == 0 {
		return out
	}
	j := BoothMSP(s)
	for l := 0; l < n; l++ {
		out[l] = s[(j+l)%n]
	}
	return out
}
