package wcg

import "testing"

func TestLoadForPaperCampaign(t *testing.T) {
	c := DefaultServerCapacity()
	// The deployed campaign: ~3.94 M workunits × 1.37 redundancy over
	// 26 weeks ⇒ ~0.7 tx/s.
	load := c.LoadFor(3936010, 1.37, 26*7*86400)
	if load < 0.5 || load > 1.5 {
		t.Fatalf("load = %v tx/s", load)
	}
}

func TestLoadForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultServerCapacity().LoadFor(1, 1, 0)
}

func TestLoadClampsRedundancy(t *testing.T) {
	c := DefaultServerCapacity()
	if c.LoadFor(100, 0.5, 100) != c.LoadFor(100, 1, 100) {
		t.Fatal("redundancy below 1 should clamp")
	}
}
