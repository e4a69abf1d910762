package sfcp

import (
	"bytes"
	"testing"

	"sfcp/internal/codec"
)

// FuzzSolve cross-checks the paper's parallel algorithm against naive
// refinement on arbitrary byte-derived instances. Labels lie in [0, 5),
// or, when rawB has an odd byte at index n, are lifted to b<<40 | 1<<62,
// far above 2^31: the linear solver renames them through its map, and
// ParallelPRAM and native-parallel rename them densely before their pair
// coders, which pack labels below 2^31 only. Run longer with:
//
//	go test -fuzz=FuzzSolve -fuzztime 30s
func FuzzSolve(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{0, 1, 0, 1})
	f.Add([]byte{1, 0}, []byte{0, 0})
	f.Add([]byte{0}, []byte{5})
	f.Add([]byte{3, 3, 3, 3, 2, 1, 0, 7}, []byte{1, 1, 2, 2, 1, 1, 2, 2})
	f.Add([]byte{3, 3, 3, 3, 2, 1, 0, 7}, []byte{1, 1, 2, 2, 1, 1, 2, 2, 1})
	f.Fuzz(func(t *testing.T, rawF, rawB []byte) {
		n := len(rawF)
		if n == 0 || n > 300 {
			return
		}
		wide := len(rawB) > n && rawB[n]%2 == 1
		ins := Instance{F: make([]int, n), B: make([]int, n)}
		for i := range rawF {
			ins.F[i] = int(rawF[i]) % n
			if i < len(rawB) {
				ins.B[i] = int(rawB[i] % 5)
			}
			if wide {
				ins.B[i] = ins.B[i]<<40 | 1<<62
			}
		}
		ref, err := SolveWith(ins, Options{Algorithm: AlgorithmMoore})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{AlgorithmParallelPRAM, AlgorithmLinear, AlgorithmNativeParallel, AlgorithmHopcroft} {
			res, err := SolveWith(ins, Options{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if !SamePartition(res.Labels, ref.Labels) {
				t.Fatalf("%v disagrees with moore on F=%v B=%v", alg, ins.F, ins.B)
			}
		}
	})
}

// FuzzResolveMatchesFullSolve drives an Incremental session through random
// edit bursts and demands labels byte-identical to a from-scratch solve of
// the edited instance after every burst — the incremental path's one
// correctness contract. As in FuzzSolve, an odd byte after B's first n
// switches to wide labels (b<<40 | 1<<62), for the base and the edits
// alike. Run longer with:
//
//	go test -fuzz=FuzzResolveMatchesFullSolve -fuzztime 30s
func FuzzResolveMatchesFullSolve(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{0, 1, 0, 1}, []byte{1, 0, 5, 2, 2, 3})
	f.Add([]byte{1, 0}, []byte{0, 0}, []byte{0, 1, 1})
	f.Add([]byte{3, 3, 3, 3, 2, 1, 0, 7}, []byte{1, 1, 2, 2, 1, 1, 2, 2}, []byte{7, 0, 0, 4, 1, 9, 2, 2, 1})
	f.Add([]byte{0}, []byte{5}, []byte{0, 2, 1})
	f.Add([]byte{0, 1, 2, 3}, []byte{0, 1, 0, 1, 1}, []byte{1, 0, 5, 2, 2, 3, 3, 1, 4})
	f.Add([]byte{3, 3, 3, 3, 2, 1, 0, 7}, []byte{1, 1, 2, 2, 1, 1, 2, 2, 1}, []byte{7, 0, 0, 4, 1, 9, 2, 2, 1, 6, 1, 3})
	f.Fuzz(func(t *testing.T, rawF, rawB, rawEdits []byte) {
		n := len(rawF)
		if n == 0 || n > 300 || len(rawEdits) > 120 {
			return
		}
		wide := len(rawB) > n && rawB[n]%2 == 1
		label := func(b int) int {
			if wide {
				return b<<40 | 1<<62
			}
			return b
		}
		ins := Instance{F: make([]int, n), B: make([]int, n)}
		for i := range rawF {
			ins.F[i] = int(rawF[i]) % n
			if i < len(rawB) {
				ins.B[i] = int(rawB[i] % 5)
			}
			ins.B[i] = label(ins.B[i])
		}
		inc, err := NewIncremental(ins)
		if err != nil {
			t.Fatal(err)
		}
		// edited shadows the session's current version so every burst can be
		// cross-checked against a full solve of exactly that version.
		edited := Instance{F: append([]int{}, ins.F...), B: append([]int{}, ins.B...)}
		// Each triple of fuzz bytes is one edit: (node, which halves, value).
		var delta Delta
		flush := func() {
			if len(delta.Edits) == 0 {
				return
			}
			res, err := Resolve(inc, delta)
			if err != nil {
				t.Fatal(err)
			}
			full, err := SolveWith(edited, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.NumClasses != full.NumClasses {
				t.Fatalf("resolve found %d classes, full solve %d", res.NumClasses, full.NumClasses)
			}
			for i := range res.Labels {
				if res.Labels[i] != full.Labels[i] {
					t.Fatalf("labels[%d] = %d after delta, full solve says %d (F=%v B=%v)",
						i, res.Labels[i], full.Labels[i], edited.F, edited.B)
				}
			}
			delta.Edits = delta.Edits[:0]
		}
		for i := 0; i+2 < len(rawEdits); i += 3 {
			node := int(rawEdits[i]) % n
			kind := rawEdits[i+1] % 3
			val := int(rawEdits[i+2])
			e := Edit{Node: node}
			if kind != 1 { // F edit (alone or with B)
				fv := val % n
				e.F = &fv
				edited.F[node] = fv
			}
			if kind != 0 { // B edit (alone or with F)
				bv := label(val % 5)
				e.B = &bv
				edited.B[node] = bv
			}
			delta.Edits = append(delta.Edits, e)
			// Burst boundary roughly every third edit, so one run exercises
			// both multi-edit batches and chained re-resolves.
			if len(delta.Edits) == 3 {
				flush()
			}
		}
		flush()
	})
}

// FuzzCodecRoundTrip checks the binary wire format is lossless and
// canonical: every instance decodes back identical and re-encodes to the
// exact same bytes, with a stable digest. Run longer with:
//
//	go test -fuzz=FuzzCodecRoundTrip -fuzztime 30s
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{0, 1, 0, 1})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0}, []byte{255})
	f.Add([]byte{200, 100, 0, 50}, []byte{9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, rawF, rawB []byte) {
		if len(rawF) > 1000 {
			return
		}
		ins := Instance{F: make([]int, len(rawF)), B: make([]int, len(rawF))}
		for i, v := range rawF {
			// Arbitrary non-negative values: the codec is agnostic to the
			// F-range invariant the solvers demand.
			ins.F[i] = int((uint64(v) << (uint(i) % 40)) & (uint64(^uint(0)) >> 1))
			if i < len(rawB) {
				ins.B[i] = int(rawB[i])
			}
		}
		var buf bytes.Buffer
		if err := ins.EncodeBinary(&buf); err != nil {
			t.Fatal(err)
		}
		encoded := buf.Bytes()
		if got, want := len(encoded), codec.EncodedSize(ins.F, ins.B); got != want {
			t.Fatalf("emitted %d bytes, EncodedSize says %d", got, want)
		}
		dec := codec.NewReader(bytes.NewReader(encoded))
		df, db, err := dec.Decode()
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		digest := dec.Digest()
		back := Instance{F: df, B: db}
		for i := range ins.F {
			if df[i] != ins.F[i] || db[i] != ins.B[i] {
				t.Fatalf("element %d: decoded (%d,%d), want (%d,%d)",
					i, df[i], db[i], ins.F[i], ins.B[i])
			}
		}
		var again bytes.Buffer
		if err := back.EncodeBinary(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), encoded) {
			t.Fatal("decoded-then-encoded bytes differ from the original encoding")
		}
		dec2 := codec.NewReader(bytes.NewReader(again.Bytes()))
		if _, _, err := dec2.Decode(); err != nil {
			t.Fatal(err)
		}
		if dec2.Digest() != digest {
			t.Fatalf("digest not stable: %s vs %s", dec2.Digest(), digest)
		}
	})
}

// FuzzCodecDecode feeds arbitrary bytes to the streaming decoder: malformed
// headers, truncated bodies and corrupt trailers must come back as errors,
// never panics or misdecodes — and anything that does decode must re-encode
// to exactly the bytes consumed.
func FuzzCodecDecode(f *testing.F) {
	var valid bytes.Buffer
	if err := (Instance{F: []int{1, 2, 0}, B: []int{0, 1, 0}}).EncodeBinary(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:5])
	f.Add([]byte("SFCP"))
	f.Add([]byte("SFCP\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec := codec.NewReaderSize(bytes.NewReader(raw), 128)
		dec.MaxN = 1 << 16 // keep hostile element counts cheap to reject
		df, db, err := dec.Decode()
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := (Instance{F: df, B: db}).EncodeBinary(&again); err != nil {
			t.Fatalf("re-encoding a decoded instance: %v", err)
		}
		size := codec.EncodedSize(df, db)
		if size > len(raw) || !bytes.Equal(again.Bytes(), raw[:size]) {
			t.Fatalf("accepted %d bytes that do not round-trip", size)
		}
	})
}

// FuzzMinimalRotation cross-checks the parallel m.s.p. against Booth's
// algorithm.
func FuzzMinimalRotation(f *testing.F) {
	f.Add([]byte{3, 1, 2})
	f.Add([]byte{1, 1, 1})
	f.Add([]byte{2, 1, 2, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 400 {
			return
		}
		s := make([]int, len(raw))
		for i, v := range raw {
			s[i] = int(v % 6)
		}
		want := MinimalRotation(s)
		got, _ := MinimalRotationPRAM(s)
		if got != want {
			t.Fatalf("MinimalRotationPRAM(%v) = %d, want %d", s, got, want)
		}
	})
}
