package calib

import (
	"encoding/json"
	"testing"
)

// FuzzProfileDecode hammers the strict profile decoder: whatever the
// bytes, Decode must either return an error or a profile that passes
// Validate — never a half-applied threshold set — and it accepts only
// valid JSON, so nothing but whitespace may trail the profile.
func FuzzProfileDecode(f *testing.F) {
	good := Default()
	good.Calibrated = true
	if data, err := json.Marshal(good); err == nil {
		f.Add(data)
		f.Add(append(data, '}'))
	}
	f.Add([]byte(`{"version":2,"incr_max_dirty_frac":0.3,"host":{"gomaxprocs":1,"num_cpu":1,"goos":"linux","goarch":"amd64"},"calibrated":false}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{"version":2,"surprise":true}`))
	f.Add([]byte(`{}{}`))
	f.Add([]byte(`{nope`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"version":2,"incr_max_dirty_frac":-5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		if p == nil {
			t.Fatal("nil profile with nil error")
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("Decode accepted an invalid profile: %v\n%+v", verr, p)
		}
		if !json.Valid(data) {
			t.Fatalf("Decode accepted invalid JSON: %q", data)
		}
	})
}
