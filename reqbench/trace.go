package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. Spans of one op share OpID;
// Parent is the ID of the span that caused this one (0 for a root). Name is
// the layer or stage: HTTP-phase spans are "op", "request", "write",
// "server" and "read"; replay spans use the request stages of the ROADMAP
// (read, decode, digest, validate, plan, cache/tier, queue, solve, encode,
// write) with Fn naming the public function that was timed.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	OpID   int           `json:"op"`
	Name   string        `json:"name"`
	Fn     string        `json:"fn,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Elems  int           `json:"elems,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only the nil checks.
type tracer struct {
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// id reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span; one without an ID gets a fresh one.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since converts a wall-clock instant to the tracer's time base.
func (t *tracer) since(at time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return at.Sub(t.origin)
}

// selfTime is one layer's aggregate: how many spans it had, their summed
// duration, and their summed self time (duration minus the part of the
// interval its children cover).
type selfTime struct {
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name (layer). A span's self time is its
// duration minus the length of the union of its children's intervals
// clipped to the span, so overlapping or overhanging children are not
// subtracted twice.
func selfTimes(spans []span) map[string]selfTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfTime{}
	for _, s := range spans {
		st := out[s.Name]
		st.Spans++
		d := s.End - s.Start
		st.TotalMS += ms(d)
		st.SelfMS += ms(d - covered(s, children[s.ID]))
		out[s.Name] = st
	}
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// write stores the spans as JSON lines, preceded by one line holding the
// per-layer self times.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"self_times": selfTimes(t.spans)}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
