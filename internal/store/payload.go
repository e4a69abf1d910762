package store

import (
	"errors"
	"fmt"
	"io"

	"sfcp"
)

// The payload codecs: the one place instance payloads and result labels
// stream between memory and a BlobStore. The bytes on disk are the sfcp
// wire format, so the codec's digest trailer checks every read. Callers
// keep their own policy for what a miss or a corrupt blob means (log,
// delete, fail the job, answer 404).

// ErrCorrupt reports a blob that exists but does not decode: truncated,
// overwritten, or failing its digest trailer.
var ErrCorrupt = errors.New("store: blob unreadable")

// PutInstance stores ins under key unless the key is already present
// (content addressing makes re-writing it a no-op).
func PutInstance(bs BlobStore, key string, ins sfcp.Instance) error {
	return put(bs, key, ins.EncodeBinary)
}

// PutLabels stores a result's labels under key unless already present.
func PutLabels(bs BlobStore, key string, labels []int) error {
	return put(bs, key, func(w io.Writer) error { return sfcp.EncodeLabelsBinary(w, labels) })
}

// GetInstance reads an instance back. A missing key is ErrNotFound, a
// blob that does not decode ErrCorrupt (both wrapped).
func GetInstance(bs BlobStore, key string) (sfcp.Instance, error) {
	var ins sfcp.Instance
	err := get(bs, key, func(r io.Reader) (err error) {
		ins, err = sfcp.DecodeBinary(r)
		return err
	})
	return ins, err
}

// GetLabels reads a result's labels back, with GetInstance's errors.
func GetLabels(bs BlobStore, key string) ([]int, error) {
	var labels []int
	err := get(bs, key, func(r io.Reader) (err error) {
		labels, err = sfcp.DecodeLabelsBinary(r)
		return err
	})
	return labels, err
}

// put streams encode's output into bs through a pipe, so a 10^8-element
// payload never needs a second in-memory copy.
func put(bs BlobStore, key string, encode func(io.Writer) error) error {
	if ok, err := bs.Has(key); err == nil && ok {
		return nil
	}
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(encode(pw)) }()
	if _, err := bs.Put(key, pr); err != nil {
		pr.CloseWithError(err) // unblock the encoder if Put bailed early
		return err
	}
	return nil
}

func get(bs BlobStore, key string, decode func(io.Reader) error) error {
	rc, err := bs.Get(key)
	if err != nil {
		return err
	}
	defer rc.Close()
	if err := decode(rc); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, key, err)
	}
	return nil
}
