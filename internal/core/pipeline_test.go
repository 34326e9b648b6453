package core

import (
	"testing"
	"testing/quick"
)

func TestTwoStageKnown(t *testing.T) {
	// host 2s, device 3s, 4 batches: 2 + 3·3 + 3 = 14.
	if got := twoStage(2, 3, 4); got != 14 {
		t.Fatalf("twoStage = %v, want 14", got)
	}
	// Single batch degenerates to serial.
	if got := twoStage(2, 3, 1); got != 5 {
		t.Fatalf("twoStage(n=1) = %v, want 5", got)
	}
	if twoStage(2, 3, 0) != 0 {
		t.Fatal("zero batches must take zero time")
	}
}

func TestPipelineNeverSlowerThanSerial(t *testing.T) {
	f := func(h, d float64, n uint8) bool {
		if h < 0 {
			h = -h
		}
		if d < 0 {
			d = -d
		}
		if h != h || d != d || h > 1e12 || d > 1e12 { // NaN/huge guard
			return true
		}
		nn := int(n%20) + 1
		// Serial: no overlap, (h+d)·n.
		return twoStage(h, d, nn) <= (h+d)*float64(nn)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineBoundedBySlowerStage(t *testing.T) {
	// For large n the per-batch cost approaches max(host, device).
	n := 1000
	got := twoStage(2, 5, n) / float64(n)
	if got < 5 || got > 5.01 {
		t.Fatalf("steady-state per-batch %v, want ≈5", got)
	}
}
