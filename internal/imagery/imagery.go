// Package imagery provides the image substrate for the active
// visualization application: square grayscale images, deterministic
// synthetic image generation (standing in for the paper's stored image
// corpus), and quality metrics. Synthetic images mix smooth gradients,
// Gaussian blobs, and textured regions so that wavelet coefficients show
// the compressibility contrast between the LZW and BZW codecs that drives
// the Figure 6(a) crossover.
package imagery

import (
	"fmt"
	"math"

	"tunable/internal/prng"
)

// Image is a square grayscale image with float64 samples nominally in
// [0, 255].
type Image struct {
	Side int
	Pix  []float64
}

// New allocates a zero image of the given side length.
func New(side int) *Image {
	return &Image{Side: side, Pix: make([]float64, side*side)}
}

// At returns the sample at (x, y).
func (im *Image) At(x, y int) float64 { return im.Pix[y*im.Side+x] }

// Set stores a sample at (x, y).
func (im *Image) Set(x, y int, v float64) { im.Pix[y*im.Side+x] = v }

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := New(im.Side)
	copy(out.Pix, im.Pix)
	return out
}

// Clamp limits all samples to [0, 255].
func (im *Image) Clamp() {
	for i, v := range im.Pix {
		if v < 0 {
			im.Pix[i] = 0
		} else if v > 255 {
			im.Pix[i] = 255
		}
	}
}

// Bytes quantizes the image to one byte per pixel.
func (im *Image) Bytes() []byte {
	out := make([]byte, len(im.Pix))
	for i, v := range im.Pix {
		switch {
		case v <= 0:
			out[i] = 0
		case v >= 255:
			out[i] = 255
		default:
			out[i] = byte(v + 0.5)
		}
	}
	return out
}

// MSE computes the mean squared error between two images.
func MSE(a, b *Image) (float64, error) {
	if a.Side != b.Side {
		return 0, fmt.Errorf("imagery: size mismatch %d vs %d", a.Side, b.Side)
	}
	var sum float64
	for i := range a.Pix {
		d := a.Pix[i] - b.Pix[i]
		sum += d * d
	}
	return sum / float64(len(a.Pix)), nil
}

// PSNR computes peak signal-to-noise ratio in dB against a peak of 255.
// Identical images report +Inf.
func PSNR(a, b *Image) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// Downsample halves the image k times by 2×2 box averaging, producing the
// reference image at a lower resolution level.
func (im *Image) Downsample(k int) *Image {
	out := im
	for ; k > 0; k-- {
		half := New(out.Side / 2)
		for y := 0; y < half.Side; y++ {
			for x := 0; x < half.Side; x++ {
				v := out.At(2*x, 2*y) + out.At(2*x+1, 2*y) + out.At(2*x, 2*y+1) + out.At(2*x+1, 2*y+1)
				half.Set(x, y, v/4)
			}
		}
		out = half
	}
	return out
}

// Generate produces a deterministic synthetic image: a diagonal gradient
// base, several Gaussian blobs, a high-frequency textured quadrant, and a
// few hard edges. seed varies the composition so a set of distinct images
// can emulate the paper's ten-image download experiments.
func Generate(side int, seed int64) *Image {
	im := New(side)
	rng := prng.New(uint64(seed)*2654435761 + 12345)
	// Smooth diagonal gradient base.
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			im.Set(x, y, 40+120*float64(x+y)/float64(2*side))
		}
	}
	// Gaussian blobs.
	nBlobs := 4 + int(rng.Next()%5)
	for b := 0; b < nBlobs; b++ {
		cx := float64(rng.Next() % uint64(side))
		cy := float64(rng.Next() % uint64(side))
		amp := 30 + 60*rng.Float64()
		sigma := float64(side) * (0.03 + 0.12*rng.Float64())
		inv := 1 / (2 * sigma * sigma)
		// Only touch a bounded window around the blob.
		r := int(3 * sigma)
		x0, x1 := clampInt(int(cx)-r, 0, side), clampInt(int(cx)+r, 0, side)
		y0, y1 := clampInt(int(cy)-r, 0, side), clampInt(int(cy)+r, 0, side)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				dx, dy := float64(x)-cx, float64(y)-cy
				im.Pix[y*side+x] += amp * math.Exp(-(dx*dx+dy*dy)*inv)
			}
		}
	}
	// Textured patch: deterministic pseudo-noise over a side/4 square
	// (dense high-frequency content, hard for every codec).
	qx, qy := side/2, side/2
	for y := qy; y < qy+side/4; y++ {
		for x := qx; x < qx+side/4; x++ {
			h := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xBF58476D1CE4E5B9 ^ uint64(seed)
			h ^= h >> 29
			h *= 0x94D049BB133111EB
			im.Pix[y*side+x] += float64(h%37) - 18
		}
	}
	// Textured surface built from a library of 32×32 motifs, one chosen
	// per tile by hash. The same motif recurs only at long range (tens of
	// tiles apart), so its wavelet coefficients form exact repeated
	// strings separated by more than a kilobyte of other data: the
	// BWT-based codec, which models a whole 64 KiB block at once, exploits
	// them, while the bounded-window streaming LZW cannot. This recreates
	// the compression-ratio contrast between the paper's LZW and Bzip2
	// (Figure 6(a)) with an honest mechanism — long-range context
	// modeling — rather than tuned constants.
	const motifSide = 32
	const motifCount = 64
	motif := func(id, mx, my int) float64 {
		h := uint64(id)*0x9E3779B97F4A7C15 ^ uint64(mx)*0xD6E8FEB86659FD93 ^ uint64(my)*0xA0761D6478BD642F
		h ^= h >> 31
		h *= 0x8EBC6AF09C88C6E3
		h ^= h >> 29
		// Motifs are sparse line work (~8% coverage) over a flat ground,
		// so smooth-area zeros still dominate the coefficient stream.
		if h%25 >= 2 {
			return 0
		}
		v := float64(h>>8%11) + 4
		if h>>20%2 == 0 {
			v = -v
		}
		return v
	}
	for ty := 0; ty < side/motifSide; ty++ {
		for tx := 0; tx < side/motifSide; tx++ {
			h := (uint64(tx)+31)*0xE7037ED1A0B428DB ^ (uint64(ty)+97)*0xA0761D6478BD642F ^ uint64(seed)*0xBF58476D1CE4E5B9
			h ^= h >> 33
			h *= 0x94D049BB133111EB
			id := int(h % motifCount)
			for my := 0; my < motifSide; my++ {
				for mx := 0; mx < motifSide; mx++ {
					im.Pix[(ty*motifSide+my)*side+(tx*motifSide+mx)] += motif(id, mx, my)
				}
			}
		}
	}
	// Hard edges: two bright bars.
	for y := side / 8; y < side/8*2; y++ {
		for x := 0; x < side/2; x++ {
			im.Pix[y*side+x] = 230
		}
	}
	for y := 0; y < side; y++ {
		x := side * 3 / 4
		im.Pix[y*side+x] = 10
	}
	im.Clamp()
	return im
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
