package snapshot

import "testing"

// TestCloneOwnsItsCopy pins the Copies rule: a clone holds the source's
// contents and shares no backing array with it, so the source can run on
// while adopters read the clone.
func TestCloneOwnsItsCopy(t *testing.T) {
	src := []int{1, 2, 3}
	c := Clone(src)
	src[0] = 99
	if len(c) != 3 || c[0] != 1 || c[1] != 2 || c[2] != 3 {
		t.Fatalf("clone = %v, want [1 2 3] independent of the source", c)
	}
	if Clone([]int{}) != nil || Clone[int](nil) != nil {
		t.Error("clone of an empty slice is not nil")
	}
}

func TestSize(t *testing.T) {
	if got := Size(make([]int32, 5)); got != 20 {
		t.Errorf("Size of 5 int32 = %d, want 20", got)
	}
	if got := Size[float64](nil); got != 0 {
		t.Errorf("Size of nil = %d, want 0", got)
	}
}
