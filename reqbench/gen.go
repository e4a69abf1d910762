package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"sfcp"
	"sfcp/internal/workload"
)

// family is one of the instance generators of internal/workload.
type family uint8

const (
	famRandom family = iota // uniform random function: shallow trees on few cycles
	famPerm                 // random permutation: pure cycles
	famCycles               // disjoint cycles with mostly distinct label strings
	famBroom                // one short cycle with long chains: deep trees
	numFamilies
)

var familyNames = [numFamilies]string{"random", "perm", "cycles", "broom"}

// spec names one generated instance. The benchmark keeps request bodies,
// which it must send, but rebuilds the arrays behind them from the spec
// when it verifies or replays an op, so large workloads hold each
// instance once, in its encoded form.
type spec struct {
	fam  family
	n    int
	seed int64
}

// cycleLen is the cycle length of the cycles family: short cycles for the
// small-request sizes, 256-node components (the delta base's shape) above.
func cycleLen(n int) int {
	if n < 4096 {
		return min(16, n)
	}
	return 256
}

// newSpec rounds n down to what the family can build exactly.
func newSpec(fam family, n int, seed int64) spec {
	if fam == famCycles {
		l := cycleLen(n)
		n = n / l * l
	}
	return spec{fam: fam, n: n, seed: seed}
}

func (s spec) build() sfcp.Instance {
	var w workload.Instance
	switch s.fam {
	case famRandom:
		w = workload.RandomFunction(s.seed, s.n, 3)
	case famPerm:
		w = workload.RandomPermutation(s.seed, s.n, 3)
	case famCycles:
		l := cycleLen(s.n)
		w = workload.DistinctCycles(s.seed, s.n/l, l, 3)
	case famBroom:
		w = workload.Broom(s.seed, s.n, 16, 64)
	default:
		panic(fmt.Sprintf("unknown family %d", s.fam))
	}
	return sfcp.Instance{F: w.F, B: w.B}
}

// kind is what one op does over HTTP.
type kind uint8

const (
	opSolveJSON   kind = iota // POST /solve, JSON body
	opBatchJSON               // POST /solve/batch, JSON body
	opSolveBinary             // POST /solve?algorithm=auto, binary body
	opDelta                   // POST /instances/{digest}/delta, binary delta
	opJob                     // POST /jobs, poll GET /jobs/{id}, GET /jobs/{id}/result
)

var kindNames = map[kind]string{
	opSolveJSON: "solve", opBatchJSON: "batch", opSolveBinary: "solve",
	opDelta: "delta", opJob: "job",
}

// op is one request of a client's fixed sequence. The body is generated
// before the timed window and is byte-identical for a given seed.
type op struct {
	kind    kind
	body    []byte
	members []int       // indexes into plan.specs: 1 per solve/job, 32 per batch
	edits   []sfcp.Edit // delta ops only
	labels  bool        // delta ops only: ask for the child's labels
	elems   int         // elements the request carries (instance or delta edits)
}

// plan is a workload's generated input: one op sequence per client, the
// instance specs those ops reference, the hot set warmed before timing
// (small_json) and the base each delta client registers (delta_stream).
type plan struct {
	specs   []spec
	clients [][]op
	warm    [][]byte // JSON /solve bodies sent once before timing
	bases   []spec   // one per delta client
	baseBin [][]byte // binary body registering each base
}

// rng returns a generator for one named stream of a run's seed, so each
// part of the input draws from its own stream and adding a draw to one
// part does not shift the others.
func rng(seed uint64, stream string, i int) *rand.Rand {
	h := uint64(14695981039346656037)
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h^uint64(i)*0x9e3779b97f4a7c15))
}

// logUniformSizes returns count sizes spread log-uniformly over
// [2^loExp, 2^hiExp], stratified: each of count equal-width strata of
// log2 n contributes exactly one size at a seeded point inside it, and the
// result is shuffled. Every seed therefore draws the same size profile;
// only the exact sizes and their order change, which keeps medians and
// throughput comparable from seed to seed.
func logUniformSizes(r *rand.Rand, count int, loExp, hiExp float64) []int {
	out := make([]int, count)
	for i := range out {
		e := loExp + (hiExp-loExp)*(float64(i)+r.Float64())/float64(count)
		out[i] = int(math.Round(math.Exp2(e)))
	}
	r.Shuffle(count, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// exactShare marks k of every `of` consecutive positions, at seeded places
// inside each block, so a stated share holds exactly in every run.
func exactShare(r *rand.Rand, count, k, of int) []bool {
	out := make([]bool, count)
	for start := 0; start < count; start += of {
		block := min(of, count-start)
		for _, p := range r.Perm(block)[:min(k, block)] {
			out[start+p] = true
		}
	}
	return out
}

// familySizedSpecs returns count specs whose families rotate through all
// four generators, each family with its own stratified size profile, so
// the per-family work is the same from seed to seed. Every client gets
// the same family and size sequence with its own instances: the two
// clients' concurrent requests are then alike, and how they contend for
// the cores does not change from run to run.
func familySizedSpecs(seed uint64, stream string, client, count int, loExp, hiExp float64) []spec {
	per := (count + int(numFamilies) - 1) / int(numFamilies)
	var sizes [numFamilies][]int
	for f := range numFamilies {
		sizes[f] = logUniformSizes(rng(seed, stream+"/sizes", int(f)), per, loExp, hiExp)
	}
	seeds := rng(seed, stream+"/seeds", client)
	out := make([]spec, count)
	for i := range out {
		f := family(i % int(numFamilies))
		out[i] = newSpec(f, sizes[f][i/int(numFamilies)], seeds.Int64())
	}
	return out
}

// appendInstanceJSON writes {"f":[...],"b":[...]}, the body shape of
// server.SolveRequest, without reflection: the small_json inputs run to
// tens of millions of elements per run.
func appendInstanceJSON(dst []byte, ins sfcp.Instance) []byte {
	dst = append(dst, `{"f":`...)
	dst = appendInts(dst, ins.F)
	dst = append(dst, `,"b":`...)
	dst = appendInts(dst, ins.B)
	return append(dst, '}')
}

func appendInts(dst []byte, v []int) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

func encodeBinary(ins sfcp.Instance) []byte {
	var buf bytes.Buffer
	if err := ins.EncodeBinary(&buf); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

const (
	hotSetSize    = 256 // small_json: instances warmed before timing
	batchMembers  = 32  // small_json: members of a /solve/batch op
	deltaBlock    = 256 // delta_stream: nodes per base component
	deltaBlocks   = 4096
	deltaBigEdits = 32 // delta_stream: edits in the 1-in-4 large delta
)

// Every generator below builds each client's sequence as `segments`
// consecutive parts of perSeg ops, and draws sizes, families and shares
// per part: each segment, run against its own sfcpd, then carries the
// same work profile as the others.

// genSmallJSON: 7 of 8 ops POST /solve, 1 of 8 POST /solve/batch with 32
// members; half the instances come from a 256-instance hot set, the rest
// are distinct. n is log-uniform in [16, 4096].
func genSmallJSON(seed uint64, clients, perSeg int) *plan {
	p := &plan{clients: make([][]op, clients)}
	p.specs = familySizedSpecs(seed, "small/hot", 0, hotSetSize, 4, 12)
	for _, s := range p.specs {
		p.warm = append(p.warm, appendInstanceJSON(nil, s.build()))
	}
	for c := range clients {
		// Clients share the op shape (which ops are batches, which slots
		// are hot) and differ in the instances.
		shape, picks := rng(seed, "small/shape", 0), rng(seed, "small/picks", c)
		for seg := range segments {
			batch := exactShare(shape, perSeg, 1, 8)
			slots := 0
			for _, b := range batch {
				if b {
					slots += batchMembers
				} else {
					slots++
				}
			}
			hotSlot := exactShare(shape, slots, 1, 2)
			cold := familySizedSpecs(seed, fmt.Sprintf("small/cold/%d", seg), c, slots/2+1, 4, 12)
			slot := 0
			member := func() (int, []byte) {
				slot++
				if hotSlot[slot-1] {
					i := picks.IntN(hotSetSize)
					return i, p.warm[i]
				}
				p.specs = append(p.specs, cold[0])
				cold = cold[1:]
				id := len(p.specs) - 1
				return id, appendInstanceJSON(nil, p.specs[id].build())
			}
			for _, isBatch := range batch {
				if !isBatch {
					id, body := member()
					p.clients[c] = append(p.clients[c], op{kind: opSolveJSON, body: body, members: []int{id}, elems: p.specs[id].n})
					continue
				}
				o := op{kind: opBatchJSON, body: []byte(`{"instances":[`)}
				for m := range batchMembers {
					id, js := member()
					if m > 0 {
						o.body = append(o.body, ',')
					}
					o.body = append(o.body, js...)
					o.members = append(o.members, id)
					o.elems += p.specs[id].n
				}
				o.body = append(o.body, "]}"...)
				p.clients[c] = append(p.clients[c], o)
			}
		}
	}
	return p
}

// genLargeBinary: every op a distinct binary instance, n log-uniform in
// [2^15, 2^20], families rotating.
func genLargeBinary(seed uint64, clients, perSeg int) *plan {
	return genBinarySolves(seed, "large", clients, perSeg, 15, 20, opSolveBinary)
}

// genJobsDurable: every op a distinct binary job, n log-uniform in
// [2^16, 2^18], families rotating.
func genJobsDurable(seed uint64, clients, perSeg int) *plan {
	return genBinarySolves(seed, "jobs", clients, perSeg, 16, 18, opJob)
}

func genBinarySolves(seed uint64, stream string, clients, perSeg int, loExp, hiExp float64, k kind) *plan {
	p := &plan{clients: make([][]op, clients)}
	for c := range clients {
		for seg := range segments {
			for _, s := range familySizedSpecs(seed, fmt.Sprintf("%s/%d", stream, seg), c, perSeg, loExp, hiExp) {
				p.specs = append(p.specs, s)
				p.clients[c] = append(p.clients[c], op{kind: k, body: encodeBinary(s.build()), members: []int{len(p.specs) - 1}, elems: s.n})
			}
		}
	}
	return p
}

// genDeltaStream: each client owns an n=2^20 base of 4096 disjoint
// 256-node cycles and posts deltas against its latest version. 3 of 4
// deltas carry one edit and 1 of 4 carry 32; 1 of 16 asks for labels.
// Every edit stays inside its node's own 256-node block, so the number of
// components and the dirty fraction per delta stay stationary.
func genDeltaStream(seed uint64, clients, perSeg int) *plan {
	p := &plan{clients: make([][]op, clients)}
	for c := range clients {
		base := spec{fam: famCycles, n: deltaBlock * deltaBlocks, seed: int64(rng(seed, "delta/base", c).Uint64() >> 1)}
		p.bases = append(p.bases, base)
		p.baseBin = append(p.baseBin, encodeBinary(base.build()))
		shape, r := rng(seed, "delta/shape", 0), rng(seed, "delta/edits", c)
		for range segments {
			big := exactShare(shape, perSeg, 1, 4)
			withLabels := exactShare(shape, perSeg, 1, 16)
			for i := range perSeg {
				count := 1
				if big[i] {
					count = deltaBigEdits
				}
				edits := make([]sfcp.Edit, 0, count)
				seen := map[int]bool{}
				for len(edits) < count {
					node := r.IntN(base.n)
					if seen[node] {
						continue
					}
					seen[node] = true
					e := sfcp.Edit{Node: node}
					if r.IntN(2) == 0 {
						b := r.IntN(3)
						e.B = &b
					} else {
						f := node - node%deltaBlock + r.IntN(deltaBlock)
						e.F = &f
					}
					edits = append(edits, e)
				}
				var buf bytes.Buffer
				if err := sfcp.EncodeDeltaBinary(&buf, sfcp.Delta{Edits: edits}); err != nil {
					panic(err) // writes to a bytes.Buffer cannot fail
				}
				p.clients[c] = append(p.clients[c], op{kind: opDelta, body: buf.Bytes(), edits: edits, labels: withLabels[i], elems: count})
			}
		}
	}
	return p
}

// applyEdits applies a delta to a plain copy of an instance: the
// benchmark's own model of a version, independent of internal/incr.
func applyEdits(ins sfcp.Instance, edits []sfcp.Edit) {
	for _, e := range edits {
		if e.F != nil {
			ins.F[e.Node] = *e.F
		}
		if e.B != nil {
			ins.B[e.Node] = *e.B
		}
	}
}
