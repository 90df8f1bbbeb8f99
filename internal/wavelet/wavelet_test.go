package wavelet

import (
	"math"
	"testing"

	"tunable/internal/imagery"
)

func TestForwardInverseRoundTrip(t *testing.T) {
	im := imagery.Generate(128, 1)
	coeff, err := Forward(im, 3)
	if err != nil {
		t.Fatal(err)
	}
	back, err := InverseLevel(coeff, 128, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := imagery.PSNR(im, back)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 100 { // lossless up to float rounding
		t.Fatalf("round-trip PSNR %.1f dB", psnr)
	}
}

func TestInverseLowerLevelMatchesBoxDownsample(t *testing.T) {
	im := imagery.Generate(128, 2)
	coeff, _ := Forward(im, 3)
	// Haar average cascade equals 2×2 box averaging, so the level-2
	// reconstruction must match Downsample(1) exactly.
	lvl2, err := InverseLevel(coeff, 128, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := im.Downsample(1)
	psnr, _ := imagery.PSNR(lvl2, ref)
	if psnr < 100 {
		t.Fatalf("level-2 vs box-downsample PSNR %.1f dB", psnr)
	}
	if lvl2.Side != 64 {
		t.Fatalf("level-2 side %d", lvl2.Side)
	}
}

func TestForwardValidation(t *testing.T) {
	im := imagery.New(100) // not divisible by 2^3
	if _, err := Forward(im, 3); err == nil {
		t.Fatal("bad dimensions accepted")
	}
	if _, err := Forward(imagery.New(64), 0); err == nil {
		t.Fatal("zero levels accepted")
	}
	coeff := make([]float64, 64*64)
	if _, err := InverseLevel(coeff, 64, 3, 4); err == nil {
		t.Fatal("out-of-range level accepted")
	}
}

func TestPyramidGeometry(t *testing.T) {
	im := imagery.Generate(256, 3)
	p, err := Decompose(im, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.CoarseSide() != 16 {
		t.Fatalf("coarse side %d", p.CoarseSide())
	}
}

func TestFullImageChunkSizeMatchesPixelCount(t *testing.T) {
	side := 128
	im := imagery.Generate(side, 4)
	p, _ := Decompose(im, 3)
	// Fetch the whole image at full level in one chunk: coefficient count
	// must equal side².
	ch, err := p.ExtractRegion(3, side/2, side/2, side/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range ch.values {
		total += len(v)
	}
	if total != side*side {
		t.Fatalf("full chunk carries %d coefficients, want %d", total, side*side)
	}
}

// TestChunkBound: no region ExtractRegion cuts is larger than ChunkBound
// says, a centred fovea covering the whole image meets the bound exactly,
// and a level the pyramid lacks allows nothing.
func TestChunkBound(t *testing.T) {
	const side, levels = 64, 3
	p, err := Decompose(imagery.Generate(side, 5), levels)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l <= levels; l++ {
		for _, r := range []int{1, 5, 16, 32, 40} {
			for _, c := range [][2]int{{32, 32}, {0, 0}, {60, 7}} {
				for _, prevR := range []int{0, r / 2} {
					if prevR >= r {
						continue
					}
					ch, err := p.ExtractRegion(l, c[0], c[1], r, prevR)
					if err != nil {
						t.Fatal(err)
					}
					if n, bound := ch.Size(), ChunkBound(side, levels, l, r); n > bound {
						t.Errorf("level %d r %d prevR %d at %v: %d-byte chunk, bound %d", l, r, prevR, c, n, bound)
					}
					ch.Release()
				}
			}
		}
		ch, err := p.ExtractRegion(l, side/2, side/2, side/2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n, bound := ch.Size(), ChunkBound(side, levels, l, side/2); n != bound {
			t.Errorf("level %d whole image: %d-byte chunk, bound %d", l, n, bound)
		}
		ch.Release()
	}
	for _, l := range []int{-1, levels + 1} {
		if b := ChunkBound(side, levels, l, side); b != 0 {
			t.Errorf("level %d: bound %d, want 0", l, b)
		}
	}
}

func TestProgressiveTransmissionReconstructs(t *testing.T) {
	side := 128
	im := imagery.Generate(side, 5)
	p, _ := Decompose(im, 3)
	canvas, err := NewCanvas(side, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Fetch in four increments of growing radius, as the client loop does.
	cx, cy := side/2, side/2
	prev := 0
	for _, r := range []int{16, 32, 48, 64} {
		ch, err := p.ExtractRegion(3, cx, cy, r, prev)
		if err != nil {
			t.Fatal(err)
		}
		// Serialize / deserialize as the wire would.
		dec, err := DecodeChunk(ch.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if err := canvas.Apply(dec); err != nil {
			t.Fatal(err)
		}
		prev = r
	}
	got, err := canvas.Reconstruct(3)
	if err != nil {
		t.Fatal(err)
	}
	psnr, _ := imagery.PSNR(im, got)
	// Quantization-limited but must be a faithful image.
	if psnr < 30 {
		t.Fatalf("progressive reconstruction PSNR %.1f dB", psnr)
	}
}

func TestIncrementsDoNotOverlap(t *testing.T) {
	side := 64
	im := imagery.Generate(side, 6)
	p, _ := Decompose(im, 2)
	ch1, _ := p.ExtractRegion(2, 32, 32, 16, 0)
	ch2, _ := p.ExtractRegion(2, 32, 32, 32, 16)
	full, _ := p.ExtractRegion(2, 32, 32, 32, 0)
	n1, n2, nf := 0, 0, 0
	for _, v := range ch1.values {
		n1 += len(v)
	}
	for _, v := range ch2.values {
		n2 += len(v)
	}
	for _, v := range full.values {
		nf += len(v)
	}
	if n1+n2 != nf {
		t.Fatalf("increments %d + %d != full %d", n1, n2, nf)
	}
}

func TestChunkEncodeDecodeRoundTrip(t *testing.T) {
	side := 64
	im := imagery.Generate(side, 7)
	p, _ := Decompose(im, 2)
	ch, _ := p.ExtractRegion(1, 20, 24, 10, 4)
	enc := ch.Encode()
	if len(enc) != ch.Size() {
		t.Fatalf("Size %d, encoded %d", ch.Size(), len(enc))
	}
	dec, err := DecodeChunk(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Level != ch.Level || dec.X != ch.X || dec.Y != ch.Y || dec.R != ch.R || dec.PrevR != ch.PrevR {
		t.Fatalf("header mismatch %+v vs %+v", dec, ch)
	}
	for i := range ch.values {
		if len(dec.values[i]) != len(ch.values[i]) {
			t.Fatalf("band %d count", i)
		}
		for j := range ch.values[i] {
			if dec.values[i][j] != ch.values[i][j] {
				t.Fatalf("band %d value %d", i, j)
			}
		}
	}
}

func TestDecodeChunkRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{'W'},
		{'X', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for _, c := range cases {
		if _, err := DecodeChunk(c); err == nil {
			t.Fatalf("garbage %v accepted", c)
		}
	}
	// Truncated band data.
	im := imagery.Generate(64, 8)
	p, _ := Decompose(im, 2)
	ch, _ := p.ExtractRegion(2, 32, 32, 16, 0)
	enc := ch.Encode()
	if _, err := DecodeChunk(enc[:len(enc)-5]); err == nil {
		t.Fatal("truncated chunk accepted")
	}
	// Trailing garbage.
	if _, err := DecodeChunk(append(enc, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestExtractRegionValidation(t *testing.T) {
	im := imagery.Generate(64, 9)
	p, _ := Decompose(im, 2)
	if _, err := p.ExtractRegion(3, 32, 32, 16, 0); err == nil {
		t.Fatal("level beyond pyramid accepted")
	}
	if _, err := p.ExtractRegion(2, 32, 32, 8, 8); err == nil {
		t.Fatal("non-growing radius accepted")
	}
}

func TestOffCenterFoveaClipped(t *testing.T) {
	side := 64
	im := imagery.Generate(side, 10)
	p, _ := Decompose(im, 2)
	canvas, _ := NewCanvas(side, 2)
	// Fovea in the corner: regions clip to the image without error.
	ch, err := p.ExtractRegion(2, 4, 4, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := canvas.Apply(ch); err != nil {
		t.Fatal(err)
	}
	got, err := canvas.Reconstruct(2)
	if err != nil {
		t.Fatal(err)
	}
	// The covered corner must resemble the original there.
	var se, n float64
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			d := got.At(x, y) - im.At(x, y)
			se += d * d
			n++
		}
	}
	rmse := math.Sqrt(se / n)
	if rmse > 20 {
		t.Fatalf("corner RMSE %.1f", rmse)
	}
}

func TestCanvasApplyValidation(t *testing.T) {
	canvas, _ := NewCanvas(64, 2)
	im := imagery.Generate(64, 11)
	p, _ := Decompose(im, 3) // deeper pyramid than canvas
	ch, _ := p.ExtractRegion(3, 32, 32, 16, 0)
	if err := canvas.Apply(ch); err == nil {
		t.Fatal("chunk with excess level accepted")
	}
	if _, err := NewCanvas(100, 3); err == nil {
		t.Fatal("bad canvas dims accepted")
	}
}
