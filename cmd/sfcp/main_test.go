package main

import (
	"bytes"
	"strings"
	"testing"

	"sfcp"
)

func TestReadInstance(t *testing.T) {
	in := "3\n1 2 0\n0 0 1\n"
	ins, err := readInstance(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.F) != 3 || ins.F[0] != 1 || ins.F[2] != 0 || ins.B[2] != 1 {
		t.Fatalf("parsed %+v", ins)
	}
}

func TestReadInstanceWhitespaceAgnostic(t *testing.T) {
	in := "2 1 0 \t 1\n0"
	ins, err := readInstance(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ins.F[0] != 1 || ins.F[1] != 0 || ins.B[0] != 1 || ins.B[1] != 0 {
		t.Fatalf("parsed %+v", ins)
	}
}

func TestReadInstanceErrors(t *testing.T) {
	cases := []string{
		"",                        // no n
		"3\n1 2",                  // truncated f
		"2\n0 1\n0",               // truncated b
		"x",                       // not a number
		"2\n0 z\n0 0",             // bad f value
		"-1",                      // negative n must error, not panic makeslice
		"99999999999999999\n0\n0", // absurd n must error, not try to allocate
	}
	for _, in := range cases {
		if _, err := readInstance(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestReadAnyDetectsFormat(t *testing.T) {
	ins := sfcp.Instance{F: []int{1, 2, 0}, B: []int{0, 1, 0}}
	var bin bytes.Buffer
	if err := ins.EncodeBinary(&bin); err != nil {
		t.Fatal(err)
	}
	fromBin, err := readAny(&bin)
	if err != nil {
		t.Fatalf("binary input: %v", err)
	}
	fromText, err := readAny(strings.NewReader("3\n1 2 0\n0 1 0\n"))
	if err != nil {
		t.Fatalf("text input: %v", err)
	}
	for i := range ins.F {
		if fromBin.F[i] != ins.F[i] || fromText.F[i] != ins.F[i] ||
			fromBin.B[i] != ins.B[i] || fromText.B[i] != ins.B[i] {
			t.Fatalf("format mismatch at %d: bin=%+v text=%+v want=%+v", i, fromBin, fromText, ins)
		}
	}
	// Inputs shorter than the 4-byte magic still parse as text.
	if _, err := readAny(strings.NewReader("0")); err != nil {
		t.Errorf("tiny text input: %v", err)
	}
	// A corrupt binary stream errors instead of falling back to text.
	corrupt := bin // already drained; rebuild
	corrupt.Reset()
	if err := ins.EncodeBinary(&corrupt); err != nil {
		t.Fatal(err)
	}
	data := corrupt.Bytes()
	data[len(data)-1] ^= 0xff
	if _, err := readAny(bytes.NewReader(data)); err == nil {
		t.Error("corrupt binary input accepted")
	}
}

// TestExplainPlan pins -explain's three lines: the resolved plan, the
// planner's reason and the stage timings.
func TestExplainPlan(t *testing.T) {
	res, err := sfcp.SolveWith(sfcp.Instance{F: []int{1, 2, 0}, B: []int{0, 1, 0}}, sfcp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	explainPlan(&buf, sfcp.AlgorithmAuto, res)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	want := []string{"plan: requested=auto resolved=linear workers=1", "reason: auto: ", "timings: plan="}
	if len(lines) != len(want) {
		t.Fatalf("-explain printed %d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, prefix := range want {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
}

func TestParseAlgo(t *testing.T) {
	for _, name := range []string{"auto", "moore", "hopcroft", "linear",
		"parallel-pram", "doubling-hash", "doubling-sort"} {
		if _, err := parseAlgo(name); err != nil {
			t.Errorf("parseAlgo(%q): %v", name, err)
		}
	}
	if _, err := parseAlgo("nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestEndToEndSolve(t *testing.T) {
	// The paper instance through readInstance + SolveWith.
	in := "16\n2 4 6 8 10 12 1 3 5 7 9 11 14 15 16 13\n1 2 1 1 2 2 3 3 1 1 3 1 1 2 1 3\n"
	// Convert to 0-based: the file format is 0-based, so rebuild.
	ins, err := readInstance(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ins.F {
		ins.F[i]--
	}
	res, err := sfcp.SolveWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmParallelPRAM})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClasses != 4 {
		t.Fatalf("classes = %d, want 4", res.NumClasses)
	}
}
