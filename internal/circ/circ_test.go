package circ

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBruteMSPBasics(t *testing.T) {
	cases := []struct {
		s    []int
		want int
	}{
		{[]int{}, -1},
		{[]int{5}, 0},
		{[]int{2, 1}, 1},
		{[]int{1, 2}, 0},
		{[]int{3, 1, 2}, 1},
		{[]int{2, 2, 1, 2}, 2},
		{[]int{1, 1, 1}, 0},    // repeating: smallest index
		{[]int{2, 1, 2, 1}, 1}, // repeating: smallest index among {1,3}
		{[]int{1, 0, 1, 1}, 1},
	}
	for _, tc := range cases {
		if got := BruteMSP(tc.s); got != tc.want {
			t.Errorf("BruteMSP(%v) = %d, want %d", tc.s, got, tc.want)
		}
	}
}

func TestBoothAndDuvalAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(24)
		sigma := 1 + rng.Intn(4)
		s := make([]int, n)
		for i := range s {
			s[i] = rng.Intn(sigma)
		}
		want := BruteMSP(s)
		if got := BoothMSP(s); got != want {
			t.Fatalf("BoothMSP(%v) = %d, want %d", s, got, want)
		}
		if got := DuvalMSP(s); got != want {
			t.Fatalf("DuvalMSP(%v) = %d, want %d", s, got, want)
		}
	}
}

func TestBoothMSPLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 500 + rng.Intn(1000)
		s := make([]int, n)
		for i := range s {
			s[i] = rng.Intn(3)
		}
		if got, want := BoothMSP(s), DuvalMSP(s); got != want {
			t.Fatalf("n=%d: Booth=%d Duval=%d", n, got, want)
		}
	}
}

func TestMSPProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := make([]int, len(raw))
		s32 := make([]int32, len(raw))
		for i, v := range raw {
			s[i] = int(v % 5)
			s32[i] = int32(s[i])
		}
		want := BruteMSP(s)
		return BoothMSP(s) == want && DuvalMSP(s) == want && DuvalMSP(s32) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSmallestRepeatingPrefix(t *testing.T) {
	cases := []struct {
		s    []int
		want int
	}{
		{[]int{}, 0},
		{[]int{7}, 1},
		{[]int{1, 1, 1, 1}, 1},
		{[]int{1, 2, 1, 2}, 2},
		{[]int{1, 2, 3}, 3},
		{[]int{1, 2, 1}, 3}, // period 2 does not divide 3
		{[]int{1, 2, 1, 3, 1, 2, 1, 3}, 4},
		{[]int{1, 2, 1, 1, 2, 1}, 3},
	}
	for _, tc := range cases {
		if got := SmallestRepeatingPrefix(tc.s); got != tc.want {
			t.Errorf("SmallestRepeatingPrefix(%v) = %d, want %d", tc.s, got, tc.want)
		}
	}
}

func TestSmallestRepeatingPrefixPaperExample(t *testing.T) {
	// Example 3.1: B-label string of cycle C has smallest repeating prefix
	// (1,2,1,3) of length 4.
	bc := []int{1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3}
	if got := SmallestRepeatingPrefix(bc); got != 4 {
		t.Fatalf("period = %d, want 4", got)
	}
}

func periodRef(s []int) int {
	n := len(s)
	for p := 1; p < n; p++ {
		if n%p != 0 {
			continue
		}
		ok := true
		for i := 0; i+p < n; i++ {
			if s[i] != s[i+p] {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	if n == 0 {
		return 0
	}
	return n
}

func TestSmallestRepeatingPrefixProperty(t *testing.T) {
	// The buffered int32 form must not read what fail held before.
	var fail []int32
	f := func(raw []uint8) bool {
		s := make([]int, len(raw))
		s32 := make([]int32, len(raw))
		for i, v := range raw {
			s[i] = int(v % 3) // small alphabet encourages periodicity
			s32[i] = int32(s[i])
		}
		if len(fail) < len(s) {
			fail = make([]int32, len(s))
		}
		for i := range fail {
			fail[i] = int32(len(fail))
		}
		want := periodRef(s)
		return SmallestRepeatingPrefix(s) == want && SmallestRepeatingPrefixBuf(s32, fail) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIsRotationOf(t *testing.T) {
	if !IsRotationOf([]int{1, 2, 3}, []int{3, 1, 2}) {
		t.Error("rotations not detected")
	}
	if IsRotationOf([]int{1, 2, 3}, []int{1, 3, 2}) {
		t.Error("non-rotation accepted")
	}
	if IsRotationOf([]int{1, 2}, []int{1, 2, 3}) {
		t.Error("length mismatch accepted")
	}
	if !IsRotationOf(nil, nil) {
		t.Error("empty strings are rotations of each other")
	}
	if !IsRotationOf([]int{2, 1, 2, 1}, []int{1, 2, 1, 2}) {
		t.Error("repeating rotations not detected")
	}
}

func TestCanonical(t *testing.T) {
	got := Canonical([]int{3, 1, 2})
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Canonical = %v, want %v", got, want)
		}
	}
	if len(Canonical(nil)) != 0 {
		t.Fatal("Canonical(nil) should be empty")
	}
}
