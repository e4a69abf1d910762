package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; covered by the non-short test run")
	}
	for _, e := range All() {
		var buf bytes.Buffer
		e.Run(Config{Out: &buf, Quick: true, Seed: 7})
		out := buf.String()
		if len(out) == 0 {
			t.Errorf("%s produced no output", e.ID)
		}
		for _, bad := range []string{"DISAGREE", "WRONG RESULT", "SOLVERS DISAGREE"} {
			if strings.Contains(out, bad) {
				t.Errorf("%s reported %q:\n%s", e.ID, bad, out)
			}
		}
	}
}

func TestFingerprintSane(t *testing.T) {
	fp := Fingerprint()
	if fp.GOMAXPROCS < 1 || fp.NumCPU < 1 {
		t.Errorf("implausible fingerprint: %+v", fp)
	}
	if fp.GOOS == "" || fp.GOARCH == "" {
		t.Errorf("fingerprint missing GOOS/GOARCH: %+v", fp)
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("E1"); !ok {
		t.Error("E1 not found")
	}
	if _, ok := Lookup("E99"); ok {
		t.Error("E99 should not exist")
	}
	if len(IDs()) != len(All()) {
		t.Error("IDs/All mismatch")
	}
}

func TestE9ContainsPaperValues(t *testing.T) {
	var buf bytes.Buffer
	E9PaperExamples(Config{Out: &buf, Quick: true, Seed: 1})
	out := buf.String()
	for _, want := range []string{
		"partitions equivalent: true",
		"classes = 4",
		"prefix length = 4",
		"[3 6 9 2 8 4 1 3 5 7]", // Example 3.4 derived string (rotated)
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E9 output missing %q:\n%s", want, out)
		}
	}
}
