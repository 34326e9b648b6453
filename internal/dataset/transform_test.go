//pimcaps:bitexact

package dataset

import (
	"math"
	"testing"
)

func TestRotatedPreservesShapeAndLabels(t *testing.T) {
	g := NewGenerator(Tiny(3))
	ds := g.Generate(9)
	rot := ds.Rotated(30)
	if !equalShapes(ds, rot) {
		t.Fatal("rotation changed tensor shape")
	}
	for i := range ds.Labels {
		if ds.Labels[i] != rot.Labels[i] {
			t.Fatal("rotation changed labels")
		}
	}
	for _, v := range rot.Images.Data() {
		if v < 0 || v > 1.0001 {
			t.Fatalf("rotated pixel %v outside range", v)
		}
	}
}

func TestRotatedZeroIsNearIdentity(t *testing.T) {
	g := NewGenerator(Tiny(2))
	ds := g.Generate(4)
	rot := ds.Rotated(0)
	for i, v := range rot.Images.Data() {
		if math.Abs(float64(v-ds.Images.Data()[i])) > 1e-5 {
			t.Fatalf("0° rotation changed pixel %d: %v vs %v", i, v, ds.Images.Data()[i])
		}
	}
}

func TestRotatedChangesPixels(t *testing.T) {
	g := NewGenerator(Tiny(2))
	ds := g.Generate(4)
	rot := ds.Rotated(45)
	diff := 0
	for i, v := range rot.Images.Data() {
		if math.Abs(float64(v-ds.Images.Data()[i])) > 1e-3 {
			diff++
		}
	}
	if diff < 50 {
		t.Fatalf("45° rotation changed only %d pixels", diff)
	}
}

func TestRotated360Roundtrip(t *testing.T) {
	// Rotating by +20 then −20 must approximately restore the
	// interior (borders lose information to zero fill).
	g := NewGenerator(Tiny(2))
	ds := g.Generate(2)
	back := ds.Rotated(20).Rotated(-20)
	h, w := ds.Spec.H, ds.Spec.W
	var worst float64
	for y := 3; y < h-3; y++ {
		for x := 3; x < w-3; x++ {
			a := float64(ds.Images.At(0, 0, y, x))
			b := float64(back.Images.At(0, 0, y, x))
			if d := math.Abs(a - b); d > worst {
				worst = d
			}
		}
	}
	if worst > 0.25 { // double bilinear resampling blurs noisy pixels
		t.Fatalf("interior roundtrip error %.3f too high", worst)
	}
}

func equalShapes(a, b *Dataset) bool {
	sa, sb := a.Images.Shape(), b.Images.Shape()
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}
