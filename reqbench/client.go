package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strings"
	"time"

	"sfcp"
	"sfcp/internal/jobs"
	"sfcp/internal/server"
)

// labelSum identifies one label array by its length and an FNV-1a hash
// of its values, so the benchmark can check millions of labels per run
// without keeping them.
type labelSum struct {
	N int
	H uint64
}

func sumLabels(labels []int) labelSum {
	h := uint64(14695981039346656037)
	for _, v := range labels {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return labelSum{N: len(labels), H: h}
}

var labelsKey = []byte(`"labels":[`)

// stripLabels copies a JSON reply with the value of every "labels" array
// replaced by null, and returns the sums of the arrays in order. The
// server's encoder writes keys only as keys (quotes inside strings are
// escaped), so the byte pattern cannot occur inside a string value.
func stripLabels(body []byte) ([]byte, []labelSum, error) {
	var out []byte
	var sums []labelSum
	for {
		i := bytes.Index(body, labelsKey)
		if i < 0 {
			return append(out, body...), sums, nil
		}
		out = append(out, body[:i]...)
		out = append(out, `"labels":null`...)
		body = body[i+len(labelsKey):]
		h := uint64(14695981039346656037)
		n, v, digits := 0, uint64(0), 0
		end := -1
		for j, c := range body {
			switch {
			case c >= '0' && c <= '9':
				v = v*10 + uint64(c-'0')
				digits++
			case c == ',' || c == ']':
				if digits == 0 {
					if c == ']' && n == 0 {
						end = j
						break
					}
					return nil, nil, errors.New("malformed labels array")
				}
				h = (h ^ v) * 1099511628211
				n++
				v, digits = 0, 0
				if c == ']' {
					end = j
				}
			default:
				return nil, nil, fmt.Errorf("unexpected byte %q in labels array", c)
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return nil, nil, errors.New("unterminated labels array")
		}
		sums = append(sums, labelSum{N: n, H: h})
		body = body[end+1:]
	}
}

// result is what the benchmark keeps of one op: its timing, its outcome,
// the reply with label arrays elided, and the sums of those arrays.
type result struct {
	start, end time.Duration // offsets from the start of the timed window
	err        string        // transport error, non-2xx reply, or (after verify) wrong answer
	fields     []byte        // reply JSON, labels elided (for jobs: the final status snapshot)
	sums       []labelSum
	digest     string        // delta ops: the child digest the server returned
	polls      int           // job ops: status polls before the job finished
	fetch      time.Duration // job ops: duration of the result fetch
}

func (r *result) ok() bool { return r.err == "" }

// client is one closed-loop request goroutine: it sends its next request
// only after the previous reply has been read in full.
type client struct {
	id     int
	hc     *http.Client
	base   string
	tr     *tracer
	origin time.Time // start of the timed window
	digest string    // delta_stream: the latest version this client owns
	buf    bytes.Buffer
}

// run executes ops in order; first is the index of ops[0] in the
// client's whole sequence.
func (c *client) run(ops []op, out []result, first int) {
	for i := range ops {
		out[i] = c.exec(&ops[i], c.id*opIDStride+first+i)
	}
}

// opIDStride separates the op IDs of different clients in spans.
const opIDStride = 1_000_000

func (c *client) exec(o *op, opID int) result {
	var r result
	rootID := c.tr.id()
	t0 := time.Now()
	switch o.kind {
	case opSolveJSON:
		r.fields, r.sums, r.err = c.call(opID, rootID, "POST", "/solve", "application/json", "", o.body)
	case opBatchJSON:
		r.fields, r.sums, r.err = c.call(opID, rootID, "POST", "/solve/batch", "application/json", "", o.body)
	case opSolveBinary:
		r.fields, r.sums, r.err = c.call(opID, rootID, "POST", "/solve?algorithm=auto", sfcp.BinaryMediaType, "", o.body)
	case opDelta:
		path := "/instances/" + c.digest + "/delta"
		if !o.labels {
			path += "?labels=false"
		}
		r.fields, r.sums, r.err = c.call(opID, rootID, "POST", path, sfcp.DeltaBinaryMediaType, "", o.body)
		if r.err == "" {
			var dr server.DeltaResponse
			if err := json.Unmarshal(r.fields, &dr); err != nil {
				r.err = "decoding delta reply: " + err.Error()
			} else {
				r.digest, c.digest = dr.Digest, dr.Digest
			}
		}
	case opJob:
		c.job(o, opID, rootID, &r)
	}
	t1 := time.Now()
	r.start, r.end = t0.Sub(c.origin), t1.Sub(c.origin)
	c.tr.add(span{ID: rootID, OpID: opID, Name: "op", Fn: kindNames[o.kind], Start: c.tr.since(t0), End: c.tr.since(t1), Elems: o.elems})
	return r
}

// job submits a binary job, polls its status every millisecond until it
// ends, then fetches the labels in the binary wire format.
func (c *client) job(o *op, opID int, parent int64, r *result) {
	var snap jobs.Snapshot
	fields, _, err := c.call(opID, parent, "POST", "/jobs?algorithm=auto", sfcp.BinaryMediaType, "", o.body)
	if err == "" {
		if e := json.Unmarshal(fields, &snap); e != nil {
			err = "decoding job snapshot: " + e.Error()
		}
	}
	for err == "" && !terminal(snap.State) {
		time.Sleep(time.Millisecond)
		r.polls++
		fields, _, err = c.call(opID, parent, "GET", "/jobs/"+snap.ID, "", "", nil)
		if err == "" {
			if e := json.Unmarshal(fields, &snap); e != nil {
				err = "decoding job snapshot: " + e.Error()
			}
		}
	}
	if err == "" && snap.State != jobs.StateDone {
		err = fmt.Sprintf("job ended %s: %s", snap.State, snap.Error)
	}
	if err != "" {
		r.err = err
		return
	}
	r.fields = fields
	t0 := time.Now()
	raw, status, e := c.roundTrip(opID, parent, "GET", "/jobs/"+snap.ID+"/result", "", sfcp.BinaryMediaType, nil)
	r.fetch = time.Since(t0)
	switch {
	case e != nil:
		r.err = e.Error()
	case status != http.StatusOK:
		r.err = fmt.Sprintf("GET /jobs/{id}/result: HTTP %d: %s", status, clip(raw))
	default:
		labels, e := sfcp.DecodeLabelsBinary(bytes.NewReader(raw))
		if e != nil {
			r.err = "decoding result labels: " + e.Error()
			return
		}
		r.sums = []labelSum{sumLabels(labels)}
	}
}

func terminal(s jobs.State) bool {
	return s == jobs.StateDone || s == jobs.StateFailed || s == jobs.StateCancelled
}

// call sends one request and returns the JSON reply with labels elided;
// the error string is empty on a 2xx reply.
func (c *client) call(opID int, parent int64, method, path, ctype, accept string, body []byte) ([]byte, []labelSum, string) {
	raw, status, err := c.roundTrip(opID, parent, method, path, ctype, accept, body)
	if err != nil {
		return nil, nil, err.Error()
	}
	if status < 200 || status > 299 {
		return nil, nil, fmt.Sprintf("%s %s: HTTP %d: %s", method, path, status, clip(raw))
	}
	fields, sums, err := stripLabels(raw)
	if err != nil {
		return nil, nil, fmt.Sprintf("%s %s: %v", method, path, err)
	}
	return fields, sums, ""
}

// roundTrip sends one request and reads the whole reply into the client's
// buffer (valid until the next call). Traced runs record a "request" span
// with "write" (until the request is sent), "server" (until the first
// reply byte) and "read" (until the last) children.
func (c *client) roundTrip(opID int, parent int64, method, path, ctype, accept string, body []byte) ([]byte, int, error) {
	ctx := context.Background()
	var wrote, first time.Time
	if c.tr != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { first = time.Now() },
		})
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("reading reply: %w", err)
	}
	if c.tr != nil {
		t1 := time.Now()
		id := c.tr.id()
		c.tr.add(span{ID: id, Parent: parent, OpID: opID, Name: "request", Fn: method + " " + routeOf(path), Start: c.tr.since(t0), End: c.tr.since(t1)})
		if !wrote.IsZero() && !first.IsZero() {
			c.tr.add(span{Parent: id, OpID: opID, Name: "write", Start: c.tr.since(t0), End: c.tr.since(wrote)})
			c.tr.add(span{Parent: id, OpID: opID, Name: "server", Start: c.tr.since(wrote), End: c.tr.since(first)})
			c.tr.add(span{Parent: id, OpID: opID, Name: "read", Start: c.tr.since(first), End: c.tr.since(t1)})
		}
	}
	return c.buf.Bytes(), resp.StatusCode, nil
}

// routeOf turns a request path into its route pattern for span names.
func routeOf(path string) string {
	path, _, _ = strings.Cut(path, "?")
	switch {
	case strings.HasPrefix(path, "/instances/"):
		return "/instances/{digest}/delta"
	case strings.HasPrefix(path, "/jobs/") && strings.HasSuffix(path, "/result"):
		return "/jobs/{id}/result"
	case strings.HasPrefix(path, "/jobs/"):
		return "/jobs/{id}"
	}
	return path
}

func clip(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}
