package calib

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Decode parses and validates one persisted profile. It is strict —
// unknown fields, trailing data, version skew and out-of-range values all
// fail — because a profile steers every delta re-solve the host plans: a
// file the decoder is unsure about must fall back to defaults, not
// half-apply.
func Decode(data []byte) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("calib: decoding profile: %w", err)
	}
	// Only JSON whitespace may follow the value. Decoder.More is no test
	// for that: it reports false before a stray `}` or `]`.
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return nil, errors.New("calib: trailing data after profile")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and decodes a profile file. Errors are the caller's policy
// decision: binaries that must never fail startup on a bad profile use
// LoadLenient instead.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// LoadLenient loads a profile for serving: a missing, corrupt or
// version-skewed file degrades to the default profile with one warning
// through logf (never a startup failure), because a host that lost its
// calibration must keep answering queries — just with the stock
// thresholds until it is re-fitted.
func LoadLenient(path string, logf func(format string, args ...any)) *Profile {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p, err := Load(path)
	switch {
	case err == nil:
		return p
	case errors.Is(err, os.ErrNotExist):
		logf("calibration file %s not found; using default profile", path)
	default:
		logf("calibration file unusable (%v); falling back to default profile", err)
	}
	return Default()
}

// Save persists the profile with an atomic rewrite: the JSON is written
// to a temporary sibling and renamed over the target, so a crash
// mid-write can never leave a truncated file for the next startup to
// trip over, and a concurrent reader sees either the old profile or the
// new one, never a mix.
func (p *Profile) Save(path string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("calib: encoding profile: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("calib: saving profile: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("calib: saving profile: %w", werr)
	}
	return nil
}
