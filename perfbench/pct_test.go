package main

import (
	"fmt"
	"testing"
)

func TestRankIndex(t *testing.T) {
	tests := []struct {
		n    int
		p    float64
		want int
	}{
		{n: 1, p: 0.01, want: 0},
		{n: 1, p: 0.5, want: 0},
		{n: 1, p: 1, want: 0},
		{n: 2, p: 0.49, want: 0},
		{n: 2, p: 0.5, want: 0}, // exactly on the rank boundary
		{n: 2, p: 0.51, want: 1},
		{n: 2, p: 0.99, want: 1},
		{n: 100, p: 0.01, want: 0},
		{n: 100, p: 0.5, want: 49},
		{n: 100, p: 0.99, want: 98}, // 0.99*100 must not round up to 100
		{n: 100, p: 0.995, want: 99},
		{n: 100, p: 1, want: 99},
		{n: 1000, p: 0.99, want: 989},
		{n: 1001, p: 0.99, want: 990},
		{n: 10000, p: 0.999, want: 9989},
	}
	for _, tc := range tests {
		t.Run(fmt.Sprintf("n=%d/p=%v", tc.n, tc.p), func(t *testing.T) {
			if got := rankIndex(tc.p, tc.n); got != tc.want {
				t.Errorf("rankIndex(%v, %d) = %d, want %d", tc.p, tc.n, got, tc.want)
			}
		})
	}
}

func TestLatenciesAt(t *testing.T) {
	l := latencies{5, 1, 4, 2, 3}.sorted()
	for p, want := range map[float64]float64{0.2: 1, 0.21: 2, 0.5: 3, 0.8: 4, 0.99: 5} {
		if got := l.at(p); got != want {
			t.Errorf("at(%v) = %v, want %v", p, got, want)
		}
	}
	if got := (latencies{7}).at(0.99); got != 7 {
		t.Errorf("single sample at(0.99) = %v, want 7", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{1: 0.5, 20: 0.5, 100: 0.9, 200: 0.95, 1000: 0.99, 1009: 0.99, 10000: 0.999} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}
