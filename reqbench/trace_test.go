package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Start: at(0), End: at(100)},
		// Overlapping children cover [10,50]; the overhanging one covers
		// [90,100] of the parent and 20ms outside it.
		{ID: 2, Parent: 1, Name: "request", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "request", Start: at(20), End: at(50)},
		{ID: 4, Parent: 1, Name: "request", Start: at(90), End: at(120)},
		// A grandchild is subtracted from its parent only.
		{ID: 5, Parent: 3, Name: "server", Start: at(25), End: at(45)},
		{ID: 6, Name: "op", Start: at(200), End: at(210)},
	}
	got := selfTimes(spans)
	want := map[string]selfTime{
		"op":      {Spans: 2, TotalMS: 110, SelfMS: 50 + 10},
		"request": {Spans: 3, TotalMS: 80, SelfMS: 20 + 10 + 30},
		"server":  {Spans: 1, TotalMS: 20, SelfMS: 20},
	}
	if len(got) != len(want) {
		t.Fatalf("got layers %v, want %v", got, want)
	}
	for name, w := range want {
		g := got[name]
		if g.Spans != w.Spans || math.Abs(g.TotalMS-w.TotalMS) > 1e-9 || math.Abs(g.SelfMS-w.SelfMS) > 1e-9 {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

func TestCoveredDisjointAndContained(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 60, End: 70}, {Start: 0, End: 10}, {Start: 62, End: 65}, {Start: 100, End: 140}}
	if got := covered(parent, kids); got != 20 {
		t.Errorf("covered = %v, want 20", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children = %v, want 0", got)
	}
}
