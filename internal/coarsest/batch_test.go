package coarsest

import (
	"math/rand"
	"testing"
)

// TestLinearSequentialBatchMatchesIndividual pins the contract the
// library's batch path rests on: solving members as one batch under a
// shared arena yields, per member, exactly the labels of solving that
// member alone.
func TestLinearSequentialBatchMatchesIndividual(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var sc Scratch
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(8)
		members := make([]Instance, k)
		for i := range members {
			n := rng.Intn(200) // occasionally zero
			members[i] = randomInstance(rng, n, 1+rng.Intn(4))
		}
		got, classes := LinearSequentialBatch(members, &sc)
		if len(got) != k || len(classes) != k {
			t.Fatalf("trial %d: %d results, %d class counts for %d members", trial, len(got), len(classes), k)
		}
		for i, m := range members {
			want := LinearSequential(m)
			if len(got[i]) != len(want) {
				t.Fatalf("trial %d member %d: %d labels, want %d", trial, i, len(got[i]), len(want))
			}
			if classes[i] != NumClasses(want) {
				t.Fatalf("trial %d member %d: batch reports %d classes, NumClasses says %d",
					trial, i, classes[i], NumClasses(want))
			}
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("trial %d member %d: fused labels %v != individual %v",
						trial, i, got[i], want)
				}
			}
		}
	}
}

// TestLinearSequentialBatchIdenticalMembers checks that repeated members
// reusing the same arena back-to-back do not perturb each other's
// canonical labels.
func TestLinearSequentialBatchIdenticalMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	ins := randomInstance(rng, 64, 3)
	got, _ := LinearSequentialBatch([]Instance{ins, ins, ins}, nil)
	want := LinearSequential(ins)
	for i := range got {
		if !SamePartition(got[i], want) {
			t.Fatalf("member %d: %v != %v", i, got[i], want)
		}
	}
}

func TestLinearSequentialBatchEmpty(t *testing.T) {
	if got, _ := LinearSequentialBatch(nil, nil); len(got) != 0 {
		t.Fatalf("nil batch: %v", got)
	}
	got, classes := LinearSequentialBatch([]Instance{{F: []int{}, B: []int{}}}, nil)
	if len(got) != 1 || len(got[0]) != 0 || classes[0] != 0 {
		t.Fatalf("empty member: %v classes %v", got, classes)
	}
}
