package dataset

import (
	"testing"
)

func TestGenerateShapesAndRange(t *testing.T) {
	g := NewGenerator(Tiny(4))
	ds := g.Generate(20)
	sh := ds.Images.Shape()
	if sh[0] != 20 || sh[1] != 1 || sh[2] != 12 || sh[3] != 12 {
		t.Fatalf("shape %v", sh)
	}
	for i, v := range ds.Images.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %d = %v outside [0,1]", i, v)
		}
	}
	for i, l := range ds.Labels {
		if l != i%4 {
			t.Fatalf("label %d = %d, want cycling", i, l)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := NewGenerator(Tiny(3)).Generate(9)
	b := NewGenerator(Tiny(3)).Generate(9)
	if !a.Images.Equal(b.Images) {
		t.Fatal("same seed must generate identical data")
	}
}

func TestClassesAreSeparated(t *testing.T) {
	// Same-class samples must be closer to their prototype than to
	// other prototypes on average — the learnability property the
	// accuracy experiments rely on.
	g := NewGenerator(Tiny(3))
	ds := g.Generate(30)
	imgLen := 12 * 12
	centroids := make([][]float32, 3)
	counts := make([]int, 3)
	for c := range centroids {
		centroids[c] = make([]float32, imgLen)
	}
	for i, l := range ds.Labels {
		img := ds.Images.Data()[i*imgLen : (i+1)*imgLen]
		for p, v := range img {
			centroids[l][p] += v
		}
		counts[l]++
	}
	for c := range centroids {
		for p := range centroids[c] {
			centroids[c][p] /= float32(counts[c])
		}
	}
	correct := 0
	for i, l := range ds.Labels {
		img := ds.Images.Data()[i*imgLen : (i+1)*imgLen]
		best, bestD := -1, float32(1e30)
		for c := range centroids {
			var d float32
			for p := range img {
				diff := img[p] - centroids[c][p]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == l {
			correct++
		}
	}
	if correct < 25 {
		t.Fatalf("nearest-centroid only classifies %d/30 — classes not separated", correct)
	}
}

func TestSampleWritesFullImage(t *testing.T) {
	g := NewGenerator(Tiny(2))
	buf := make([]float32, 12*12)
	g.Sample(buf, 1)
	nonzero := 0
	for _, v := range buf {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 100 {
		t.Fatalf("sample appears mostly empty (%d nonzero)", nonzero)
	}
}
