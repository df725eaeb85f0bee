package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the root
	}
	children := map[int][]int{0: {1, 2, 3}}
	// Covered: [10,50) and [90,100) = 50ns.
	if got := selfTime(spans, children, 0); got != 50*time.Nanosecond {
		t.Fatalf("self time %v, want 50ns", got)
	}
	if got := selfTime(spans, children, 1); got != 20*time.Nanosecond {
		t.Fatalf("leaf self time %v, want 20ns", got)
	}
}
