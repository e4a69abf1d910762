package sfcp

import (
	"io"

	"sfcp/internal/codec"
)

// BinaryMediaType is the MIME type under which sfcpd accepts instances in
// the binary wire format (see internal/codec for the layout).
const BinaryMediaType = "application/x-sfcp"

// EncodeBinary writes the instance to w in the sfcp binary wire format: a
// versioned little-endian header, varint-packed F and B, and an XXH64
// digest trailer, streamed through fixed-size chunks. The encoding is
// canonical — equal instances produce identical bytes.
func (ins Instance) EncodeBinary(w io.Writer) error {
	return codec.Encode(w, ins.F, ins.B)
}

// DecodeBinary reads one binary wire-format instance from r. The decoder
// works in fixed-size chunks, so peak extra memory beyond the returned
// arrays is O(chunk); corruption and truncation are reported as errors
// (the digest trailer is verified). A clean end of stream returns io.EOF.
func DecodeBinary(r io.Reader) (Instance, error) {
	f, b, err := codec.Decode(r)
	if err != nil {
		return Instance{}, err
	}
	return Instance{F: f, B: b}, nil
}

// DetectBinary reports whether prefix (4 bytes of lookahead suffice)
// starts an sfcp binary stream rather than the whitespace text format.
func DetectBinary(prefix []byte) bool { return codec.Detect(prefix) }

// EncodeLabelsBinary writes a solve result's dense Q-labels to w as a
// labels-only wire stream: the same chunked, digest-trailed framing as an
// instance, with a flags bit marking the single-array payload. It is the
// format sfcpd's GET /jobs/{id}/result serves under application/x-sfcp.
func EncodeLabelsBinary(w io.Writer, labels []int) error {
	return codec.EncodeLabels(w, labels)
}

// DecodeLabelsBinary reads one labels-only wire stream from r. Instance
// streams are rejected (the flags byte distinguishes the two kinds); a
// clean end of stream returns io.EOF.
func DecodeLabelsBinary(r io.Reader) ([]int, error) {
	return codec.DecodeLabels(r)
}

// DeltaBinaryMediaType is the MIME type under which sfcpd accepts deltas
// in the binary wire format on POST /instances/{digest}/delta.
const DeltaBinaryMediaType = "application/x-sfcp-delta"

// EncodeDeltaBinary writes a delta to w as a binary wire stream: the
// same chunked, digest-trailed framing as an instance, with a flags byte
// marking the edit-list payload (per edit: node, an F/B presence byte,
// and the present new values as varints).
func EncodeDeltaBinary(w io.Writer, delta Delta) error {
	edits := make([]codec.DeltaEdit, len(delta.Edits))
	for i, e := range delta.Edits {
		de := codec.DeltaEdit{Node: e.Node}
		if e.F != nil {
			de.SetF, de.F = true, *e.F
		}
		if e.B != nil {
			de.SetB, de.B = true, *e.B
		}
		edits[i] = de
	}
	return codec.EncodeDelta(w, edits)
}

// DecodeDeltaBinary reads one binary wire-format delta from r. Instance
// and labels streams are rejected by their flags; a clean end of stream
// returns io.EOF.
func DecodeDeltaBinary(r io.Reader) (Delta, error) {
	wireEdits, err := codec.DecodeDelta(r)
	if err != nil {
		return Delta{}, err
	}
	delta := Delta{Edits: make([]Edit, len(wireEdits))}
	for i, de := range wireEdits {
		e := Edit{Node: de.Node}
		if de.SetF {
			f := de.F
			e.F = &f
		}
		if de.SetB {
			b := de.B
			e.B = &b
		}
		delta.Edits[i] = e
	}
	return delta, nil
}

// BinaryDecoder streams instances out of a binary wire-format stream. Its
// chunked reads buffer ahead, so it — not repeated DecodeBinary calls on
// the same reader — is the way to drain concatenated instances:
//
//	dec := sfcp.NewBinaryDecoder(r)
//	for {
//		ins, err := dec.Decode()
//		if err == io.EOF {
//			break
//		}
//		...
//	}
type BinaryDecoder struct {
	r *codec.Reader
}

// NewBinaryDecoder returns a decoder reading wire-format instances from r.
func NewBinaryDecoder(r io.Reader) *BinaryDecoder {
	return &BinaryDecoder{r: codec.NewReader(r)}
}

// Decode reads the next instance; a clean end of stream returns io.EOF.
func (d *BinaryDecoder) Decode() (Instance, error) {
	f, b, err := d.r.Decode()
	if err != nil {
		return Instance{}, err
	}
	return Instance{F: f, B: b}, nil
}

// Digest returns the hex wire digest of the most recently decoded
// instance: the XXH64 trailer that guards the stream against corruption.
// XXH64 is not collision-resistant, so it is no cache key; the content
// address is Instance.Digest, which sfcpd keys its cache on.
func (d *BinaryDecoder) Digest() string { return d.r.Digest() }
