package main

import "testing"

// TestYardstickMeasuresCPU checks that each yardstick run reports a
// positive CPU time from the exact thread clock.
func TestYardstickMeasuresCPU(t *testing.T) {
	got := newYardstick().measure(3, nil)
	if len(got) != 3 {
		t.Fatalf("got %d times, want 3", len(got))
	}
	for _, ms := range got {
		if ms <= 0 || ms > 10_000 {
			t.Errorf("sort took %v ms of CPU, want a positive time", ms)
		}
	}
}
