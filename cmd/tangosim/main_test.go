package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	ok := []struct {
		noise         int
		bound, dataMB float64
	}{{6, 0, 2048}, {0, 0.01, 1}, {3, 1e-4, 0.5}}
	for _, c := range ok {
		if err := checkFlags(c.noise, c.bound, c.dataMB); err != nil {
			t.Errorf("checkFlags(%d, %v, %v) rejected: %v", c.noise, c.bound, c.dataMB, err)
		}
	}
	bad := []struct {
		noise         int
		bound, dataMB float64
	}{
		{9, 0, 2048}, {-1, 0, 2048},
		{6, -1, 2048}, {6, math.NaN(), 2048}, {6, math.Inf(1), 2048},
		{6, 0, -5}, {6, 0, 0}, {6, 0, math.NaN()}, {6, 0, math.Inf(1)},
	}
	for _, c := range bad {
		if err := checkFlags(c.noise, c.bound, c.dataMB); err == nil {
			t.Errorf("checkFlags(%d, %v, %v) accepted", c.noise, c.bound, c.dataMB)
		}
	}
}

func TestSummaryFrom(t *testing.T) {
	for steps, want := range map[int]int{60: 30, 100: 30, 40: 20, 3: 1, 1: 0} {
		if got := summaryFrom(steps); got != want {
			t.Errorf("summaryFrom(%d) = %d, want %d", steps, got, want)
		}
	}
}
