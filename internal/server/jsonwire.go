package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// The JSON codec of the routes that carry instances and labels. A request
// body holding an instance (SolveRequest, BatchRequest, JobRequest,
// InstanceCreateRequest) is parsed by a byte scanner straight into []int,
// each array allocated once; a reply holding labels (SolveResponse,
// BatchResponse, InstanceResponse, DeltaResponse) is appended to a pooled
// buffer. Neither uses reflection. The wire contract is encoding/json's:
// a reply is byte-identical to json.NewEncoder(w).Encode of the same
// value, and a request decodes as decodeStrict decodes it. The scanner
// accepts the bodies clients send; every other body — invalid, or using
// a form the scanner leaves alone (a string with escapes or non-ASCII
// bytes, a repeated key) — goes to decodeStrict, which decides it and
// words the error.

// decodeStrict is the reference decoder: encoding/json with unknown keys
// rejected, and nothing but whitespace allowed after the value.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("invalid JSON body: trailing data")
	}
	return nil
}

// jsonRequest lists the request types the scanner parses.
type jsonRequest interface {
	SolveRequest | BatchRequest | JobRequest | InstanceCreateRequest
}

// decodeRequest reads a JSON request body into dst, which must be zero.
func decodeRequest[T jsonRequest](s *Server, w http.ResponseWriter, r *http.Request, dst *T) error {
	return s.readJSON(w, r, func(body []byte) error { return decodeBody(body, dst) })
}

// decodeBody decodes body into dst, which must be zero, leaving any body
// the scanner does not accept to decodeStrict.
func decodeBody[T jsonRequest](body []byte, dst *T) error {
	if ok, _ := scanJSON(body, dst); ok {
		return nil
	}
	var zero T
	*dst = zero
	return decodeStrict(body, dst)
}

// scanJSON parses the whole body into dst. deferred reports a body the
// scanner left alone rather than found invalid.
func scanJSON[T jsonRequest](body []byte, dst *T) (ok, deferred bool) {
	s := jsonScanner{data: body}
	switch r := any(dst).(type) {
	case *SolveRequest:
		ok = s.solveRequest(r)
	case *BatchRequest:
		ok = s.batchRequest(r)
	case *JobRequest:
		ok = s.jobRequest(r)
	case *InstanceCreateRequest:
		ok = s.instanceCreateRequest(r)
	}
	s.ws()
	return ok && s.pos == len(s.data), s.deferred
}

// readJSON reads a body under the byte limit into a pooled buffer,
// counts it for the ingest metric and hands it to decode. The buffer is
// reused once decode returns, so decode copies out what it keeps.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, decode func(body []byte) error) error {
	buf := getBuf()
	defer putBuf(buf)
	var err error
	*buf, err = readAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), *buf)
	s.metrics.ingest("json", int64(len(*buf)))
	if err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return decode(*buf)
}

// readAll is io.ReadAll appending to b, so a pooled buffer is refilled
// in place.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	b = slices.Grow(b, 512)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// wireBufs recycles request bodies and replies. A buffer grown past
// maxPooledBuf is dropped instead: one 2^20-label reply would otherwise
// stay pinned at ~8 MB.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return wireBufs.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		wireBufs.Put(b)
	}
}

// jsonScanner walks one request body. Its methods return false on the
// first byte they do not accept; deferred then tells a form left to
// decodeStrict from an invalid body.
type jsonScanner struct {
	data     []byte
	pos      int
	deferred bool
}

// Each request type's keys, matched as encoding/json matches its field
// names: exactly, else case-insensitively.
var (
	solveKeys    = []string{"algorithm", "f", "b", "seed"}
	batchKeys    = []string{"algorithm", "instances"}
	jobKeys      = []string{"algorithm", "f", "b", "seed", "priority"}
	instanceKeys = []string{"f", "b"}
)

func (s *jsonScanner) solveRequest(r *SolveRequest) bool {
	return s.object(solveKeys, func(key string) bool {
		return s.solveField(key, &r.Algorithm, &r.F, &r.B, &r.Seed)
	})
}

// solveField reads the value of a key SolveRequest and JobRequest share.
func (s *jsonScanner) solveField(key string, algo *string, f, b *[]int, seed **uint64) (ok bool) {
	switch key {
	case "algorithm":
		*algo, ok = s.string()
	case "f":
		*f, ok = s.ints()
	case "b":
		*b, ok = s.ints()
	case "seed":
		*seed, ok = s.seed()
	}
	return ok
}

func (s *jsonScanner) batchRequest(r *BatchRequest) bool {
	return s.object(batchKeys, func(key string) (ok bool) {
		if key == "algorithm" {
			r.Algorithm, ok = s.string()
			return ok
		}
		if !s.next('[') {
			return false
		}
		r.Instances = []SolveRequest{}
		if s.next(']') {
			return true
		}
		for {
			r.Instances = append(r.Instances, SolveRequest{})
			if !s.solveRequest(&r.Instances[len(r.Instances)-1]) {
				return false
			}
			if !s.next(',') {
				return s.next(']')
			}
		}
	})
}

func (s *jsonScanner) jobRequest(r *JobRequest) bool {
	return s.object(jobKeys, func(key string) (ok bool) {
		if key != "priority" {
			return s.solveField(key, &r.Algorithm, &r.F, &r.B, &r.Seed)
		}
		s.ws()
		r.Priority, s.pos, ok = parseInt(s.data, s.pos)
		return ok
	})
}

func (s *jsonScanner) instanceCreateRequest(r *InstanceCreateRequest) bool {
	return s.object(instanceKeys, func(key string) (ok bool) {
		if key == "f" {
			r.F, ok = s.ints()
		} else {
			r.B, ok = s.ints()
		}
		return ok
	})
}

// object walks an object, or null, whose keys come from keys, and calls
// value to read each key's value. A null value is skipped, leaving the
// field zero as encoding/json does. A repeated key is deferred: there
// encoding/json decodes the second value over the first (merging arrays
// element by element), which the scanner does not model.
func (s *jsonScanner) object(keys []string, value func(key string) bool) bool {
	if s.null() {
		return true
	}
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen uint
	for {
		name, ok := s.stringBytes()
		if !ok {
			return false
		}
		i := matchKey(keys, name)
		if i < 0 {
			return false
		}
		if seen&(1<<i) != 0 {
			s.deferred = true
			return false
		}
		seen |= 1 << i
		if !s.next(':') || !s.null() && !value(keys[i]) {
			return false
		}
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// matchKey returns the index of the key name selects, or -1. Both sides
// are ASCII (stringBytes defers any other key), so folding is ASCII folding.
func matchKey(keys []string, name []byte) int {
	for i, k := range keys {
		if string(name) == k {
			return i
		}
	}
	for i, k := range keys {
		if strings.EqualFold(string(name), k) {
			return i
		}
	}
	return -1
}

func (s *jsonScanner) ws() { s.pos = skipWS(s.data, s.pos) }

// next consumes c if it is the next byte after whitespace.
func (s *jsonScanner) next(c byte) bool {
	s.ws()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// null consumes a null literal if one is next after whitespace.
func (s *jsonScanner) null() bool {
	s.ws()
	if bytes.HasPrefix(s.data[s.pos:], nullLiteral) {
		s.pos += len(nullLiteral)
		return true
	}
	return false
}

var nullLiteral = []byte("null")

// stringBytes reads a string made of printable ASCII without escapes, as
// every key and algorithm name is, and returns its bytes. Any other string is
// deferred — unless a control byte makes it invalid outright.
func (s *jsonScanner) stringBytes() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	tok := s.data[s.pos:]
	end := bytes.IndexByte(tok, '"')
	if end < 0 {
		return nil, false
	}
	tok = tok[:end]
	for _, c := range tok {
		if c < ' ' {
			return nil, false
		}
		if c == '\\' || c >= utf8.RuneSelf {
			s.deferred = true
			return nil, false
		}
	}
	s.pos += end + 1
	return tok, true
}

func (s *jsonScanner) string() (string, bool) {
	tok, ok := s.stringBytes()
	return string(tok), ok
}

// seed reads an unsigned integer for SolveRequest.Seed.
func (s *jsonScanner) seed() (*uint64, bool) {
	s.ws()
	start := s.pos
	for s.pos < len(s.data) && s.data[s.pos]-'0' <= 9 {
		s.pos++
	}
	tok := s.data[start:s.pos]
	if len(tok) == 0 || len(tok) > 1 && tok[0] == '0' {
		return nil, false
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		return nil, false
	}
	return &v, true
}

// ints reads an array of integers. Integers hold no ']', so the array
// ends at the first one, and its commas give the length: the slice is
// allocated once, at its final size. An element written as clients
// write it — plain digits, then a comma or the end — takes the inline
// path; any other goes through element, which fails on anything
// encoding/json would not store in an int.
func (s *jsonScanner) ints() ([]int, bool) {
	if !s.next('[') {
		return nil, false
	}
	end := bytes.IndexByte(s.data[s.pos:], ']')
	if end < 0 {
		return nil, false
	}
	span := s.data[s.pos : s.pos+end]
	n := 0
	if skipWS(span, 0) < len(span) {
		n = bytes.Count(span, []byte{','}) + 1
	}
	out := make([]int, n)
	p := 0
	for i := range out {
		if i > 0 {
			if p == len(span) || span[p] != ',' {
				return nil, false
			}
			p++
		}
		// Up to 18 digits cannot overflow u; element takes longer ones.
		q, u := p, uint64(0)
		for ; q < len(span) && q-p < 18; q++ {
			d := span[q] - '0'
			if d > 9 {
				break
			}
			u = u*10 + uint64(d)
		}
		if q > p && (span[p] != '0' || q == p+1) && u <= math.MaxInt && (q == len(span) || span[q] == ',') {
			out[i], p = int(u), q
			continue
		}
		var ok bool
		if out[i], p, ok = element(span, p); !ok {
			return nil, false
		}
	}
	if skipWS(span, p) != len(span) {
		return nil, false
	}
	s.pos += end + 1
	return out, true
}

// element reads one array element with the whitespace around it: an
// integer, or null, which leaves the element zero as in encoding/json.
func element(b []byte, p int) (int, int, bool) {
	p = skipWS(b, p)
	v, ok := 0, true
	if bytes.HasPrefix(b[p:], nullLiteral) {
		p += len(nullLiteral)
	} else if v, p, ok = parseInt(b, p); !ok {
		return 0, p, false
	}
	return v, skipWS(b, p), true
}

func skipWS(b []byte, p int) int {
	for p < len(b) && b[p] <= ' ' && (b[p] == ' ' || b[p] == '\t' || b[p] == '\n' || b[p] == '\r') {
		p++
	}
	return p
}

// parseInt reads the JSON integer at b[p:] and returns it with the
// position after it. It fails on a malformed number and on one outside
// int; a fraction or exponent is left for the caller to reject.
func parseInt(b []byte, p int) (int, int, bool) {
	neg := p < len(b) && b[p] == '-'
	if neg {
		p++
	}
	start := p
	var u uint64
	for ; p < len(b); p++ {
		d := b[p] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	switch digits := p - start; {
	case digits == 0, digits > 1 && b[start] == '0', digits > 19:
		return 0, p, false
	case neg && u > uint64(math.MaxInt)+1, !neg && u > math.MaxInt:
		return 0, p, false
	}
	if neg {
		return -int(u), p, true
	}
	return int(u), p, true
}

// jsonReply lists the reply types the writer writes.
type jsonReply interface {
	SolveResponse | BatchResponse | InstanceResponse | DeltaResponse
}

// writeReply writes code and v exactly as writeJSON (json.Encoder) does.
func writeReply[T jsonReply](w http.ResponseWriter, code int, v *T) {
	buf := getBuf()
	defer putBuf(buf)
	e := jsonWriter{b: *buf}
	switch r := any(v).(type) {
	case *SolveResponse:
		e.solveResponse(r)
	case *BatchResponse:
		e.batchResponse(r)
	case *InstanceResponse:
		e.instanceResponse(r)
	case *DeltaResponse:
		e.deltaResponse(r)
	}
	e.b = append(e.b, '\n')
	*buf = e.b
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if !e.failed {
		_, _ = w.Write(e.b)
	}
}

// jsonWriter appends a reply. Every field helper writes one object
// member; omitempty fields are skipped by the caller.
type jsonWriter struct {
	b []byte
	// failed marks a non-finite float: Encode fails on one and writes
	// nothing, so writeReply writes nothing either.
	failed bool
}

func (e *jsonWriter) solveResponse(r *SolveResponse) {
	e.b = append(e.b, '{')
	e.str("algorithm", r.Algorithm)
	if r.ResolvedAlgorithm != "" {
		e.str("resolved_algorithm", r.ResolvedAlgorithm)
	}
	if r.PlanReason != "" {
		e.str("plan_reason", r.PlanReason)
	}
	if r.PlanWorkers != 0 {
		e.int("plan_workers", int64(r.PlanWorkers))
	}
	if len(r.Labels) != 0 {
		e.ints("labels", r.Labels)
	}
	e.int("num_classes", int64(r.NumClasses))
	e.bool("cached", r.Cached)
	e.float("elapsed_ms", r.ElapsedMS)
	if r.PlanMS != 0 {
		e.float("plan_ms", r.PlanMS)
	}
	if r.SolveMS != 0 {
		e.float("solve_ms", r.SolveMS)
	}
	if r.ResolveMS != 0 {
		e.float("resolve_ms", r.ResolveMS)
	}
	if st := r.Stats; st != nil {
		e.key("stats")
		e.b = append(e.b, '{')
		e.int("Rounds", st.Rounds)
		e.int("Work", st.Work)
		e.int("MaxProcs", st.MaxProcs)
		e.int("Reads", st.Reads)
		e.int("Writes", st.Writes)
		e.int("Cells", st.Cells)
		e.b = append(e.b, '}')
	}
	if r.Error != "" {
		e.str("error", r.Error)
	}
	if r.Coalesced != 0 {
		e.int("coalesced", int64(r.Coalesced))
	}
	if r.FlushReason != "" {
		e.str("flush_reason", r.FlushReason)
	}
	if r.QueueMS != 0 {
		e.float("queue_ms", r.QueueMS)
	}
	e.b = append(e.b, '}')
}

func (e *jsonWriter) batchResponse(r *BatchResponse) {
	e.b = append(e.b, '{')
	e.key("results")
	if r.Results == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range r.Results {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.solveResponse(&r.Results[i])
		}
		e.b = append(e.b, ']')
	}
	e.int("errors", int64(r.Errors))
	e.b = append(e.b, '}')
}

func (e *jsonWriter) instanceResponse(r *InstanceResponse) {
	e.b = append(e.b, '{')
	e.str("digest", r.Digest)
	e.int("n", int64(r.N))
	e.int("num_classes", int64(r.NumClasses))
	if len(r.Labels) != 0 {
		e.ints("labels", r.Labels)
	}
	if r.Reused {
		e.bool("reused", r.Reused)
	}
	if r.SolveMS != 0 {
		e.float("solve_ms", r.SolveMS)
	}
	e.b = append(e.b, '}')
}

func (e *jsonWriter) deltaResponse(r *DeltaResponse) {
	e.b = append(e.b, '{')
	e.str("parent_digest", r.ParentDigest)
	e.str("digest", r.Digest)
	e.int("n", int64(r.N))
	e.int("num_classes", int64(r.NumClasses))
	if len(r.Labels) != 0 {
		e.ints("labels", r.Labels)
	}
	if ri := r.Resolve; ri != nil {
		e.key("resolve")
		e.b = append(e.b, '{')
		e.str("mode", ri.Mode)
		e.str("reason", ri.Reason)
		e.int("dirty_components", int64(ri.DirtyComponents))
		e.int("dirty_nodes", int64(ri.DirtyNodes))
		e.float("dirty_frac", ri.DirtyFrac)
		e.int("resolve_ns", int64(ri.Duration))
		e.b = append(e.b, '}')
	}
	if r.SessionRebuilt {
		e.bool("session_rebuilt", r.SessionRebuilt)
	}
	e.float("resolve_ms", r.ResolveMS)
	e.b = append(e.b, '}')
}

// key starts an object member: a comma unless it is the object's first,
// then the quoted name (every name here is plain ASCII) and a colon.
func (e *jsonWriter) key(name string) {
	if e.b[len(e.b)-1] != '{' {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
}

func (e *jsonWriter) int(key string, v int64) {
	e.key(key)
	e.b = strconv.AppendInt(e.b, v, 10)
}

func (e *jsonWriter) bool(key string, v bool) {
	e.key(key)
	e.b = strconv.AppendBool(e.b, v)
}

// ints appends an array of integers, first reserving room for all of
// them at the widest one's width, so a large reply grows its buffer once.
func (e *jsonWriter) ints(key string, v []int) {
	e.key(key)
	var lo, hi int
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	var digits [20]byte
	width := max(len(strconv.AppendInt(digits[:0], int64(lo), 10)), len(strconv.AppendInt(digits[:0], int64(hi), 10)))
	e.b = slices.Grow(e.b, len(v)*(width+1)+1)
	e.b = append(e.b, '[')
	for i, x := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = strconv.AppendInt(e.b, int64(x), 10)
	}
	e.b = append(e.b, ']')
}

// float formats as encoding/json does: like ES6, in exponent form below
// 1e-6 and from 1e21, with an exponent's leading zero dropped.
func (e *jsonWriter) float(key string, f float64) {
	e.key(key)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.failed = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// str appends a string escaped as encoding/json's HTML-safe encoder
// does: quotes, backslashes, control bytes, <, > and & escaped, invalid
// UTF-8 replaced by U+FFFD, and U+2028 and U+2029 escaped.
func (e *jsonWriter) str(key, v string) {
	const hex = "0123456789abcdef"
	e.key(key)
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(v); {
		c := v[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, v[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(v[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, v[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, v[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, v[start:]...)
	e.b = append(b, '"')
}
