// Fixture for the scratchalias analyzer: slices handed out by the
// arena escaping the solve that borrowed them.
package coarsest

type scratch struct{ i32 [][]int32 }

func (s *scratch) bufI32(n int) []int32 { return nil }

func (s *scratch) bufI32Raw(n int) []int32 { return nil }

type holder struct{ kept []int32 }

func escapeReturn(sc *scratch, n int) []int32 {
	buf := sc.bufI32(n)
	fill(buf)
	return buf // want "returning a slice backed by the Scratch arena"
}

func escapeReslice(sc *scratch, n int) []int32 {
	buf := sc.bufI32(n)
	return buf[:n/2] // want "returning a slice backed by the Scratch arena"
}

func escapeRaw(sc *scratch, n int) []int32 {
	return sc.bufI32Raw(n) // want "returning a slice backed by the Scratch arena"
}

func escapeThroughAppend(sc *scratch, n int) []int32 {
	buf := sc.bufI32(n)
	more := append(buf, 1)
	return more // want "returning a slice backed by the Scratch arena"
}

func escapeFieldStore(h *holder, sc *scratch, n int) {
	tmp := sc.bufI32(n)
	h.kept = tmp // want "storing a Scratch-arena slice in a field"
}

func escapeSend(sc *scratch, out chan []int32) {
	out <- sc.bufI32(8) // want "sending a Scratch-arena slice on a channel"
}

func fill(b []int32) {
	for i := range b {
		b[i] = int32(i)
	}
}
