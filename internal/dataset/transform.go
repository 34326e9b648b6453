package dataset

import (
	"math"

	"pimcapsnet/internal/tensor"
)

// Rotated returns a copy of the dataset with every image rotated by
// deg degrees about its center (bilinear sampling, zero fill) — the
// pose change the paper's §1 argues pooling CNNs cannot track while
// capsules can.
func (d *Dataset) Rotated(deg float64) *Dataset {
	out := &Dataset{
		Spec:   d.Spec,
		Images: tensor.New(d.Images.Shape()...),
		Labels: append([]int(nil), d.Labels...),
	}
	n := d.Images.Dim(0)
	imgLen := d.Spec.Channels * d.Spec.H * d.Spec.W
	for k := 0; k < n; k++ {
		rotateInto(
			out.Images.Data()[k*imgLen:(k+1)*imgLen],
			d.Images.Data()[k*imgLen:(k+1)*imgLen],
			d.Spec.Channels, d.Spec.H, d.Spec.W, deg)
	}
	return out
}

// rotateInto rotates one C×H×W image by deg degrees with bilinear
// interpolation.
func rotateInto(dst, src []float32, c, h, w int, deg float64) {
	rad := deg * math.Pi / 180
	sin, cos := math.Sin(rad), math.Cos(rad)
	cy, cx := float64(h-1)/2, float64(w-1)/2
	for ch := 0; ch < c; ch++ {
		plane := src[ch*h*w : (ch+1)*h*w]
		out := dst[ch*h*w : (ch+1)*h*w]
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				// Inverse mapping: destination → source.
				fy := float64(y) - cy
				fx := float64(x) - cx
				sy := cos*fy + sin*fx + cy
				sx := -sin*fy + cos*fx + cx
				y0, x0 := int(math.Floor(sy)), int(math.Floor(sx))
				if y0 < -1 || y0 >= h || x0 < -1 || x0 >= w {
					continue
				}
				wy := float32(sy - float64(y0))
				wx := float32(sx - float64(x0))
				sample := func(yy, xx int) float32 {
					if yy < 0 || yy >= h || xx < 0 || xx >= w {
						return 0
					}
					return plane[yy*w+xx]
				}
				v := (1-wy)*(1-wx)*sample(y0, x0) +
					(1-wy)*wx*sample(y0, x0+1) +
					wy*(1-wx)*sample(y0+1, x0) +
					wy*wx*sample(y0+1, x0+1)
				out[y*w+x] = v
			}
		}
	}
}
