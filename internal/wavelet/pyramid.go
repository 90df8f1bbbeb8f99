package wavelet

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"tunable/internal/imagery"
)

// Pyramid is the server-side store: an image held as Mallat wavelet
// coefficients, from which quantized coefficient chunks for arbitrary
// foveal regions and resolution levels can be extracted.
type Pyramid struct {
	Side   int // full-resolution side S
	Levels int // decomposition depth L
	coeff  []float64
}

// Decompose builds a pyramid from an image.
func Decompose(im *imagery.Image, levels int) (*Pyramid, error) {
	coeff, err := Forward(im, levels)
	if err != nil {
		return nil, err
	}
	return &Pyramid{Side: im.Side, Levels: levels, coeff: coeff}, nil
}

// CoarseSide returns the side of the coarsest approximation.
func (p *Pyramid) CoarseSide() int { return p.Side >> p.Levels }

// band identifies one coefficient band: the approximation (k=0) or the
// H/V/D details at decomposition step k (1..L).
type band struct {
	k   int // 0 = approx, else detail level
	dir int // 0 H (top-right), 1 V (bottom-left), 2 D (bottom-right); unused for approx
}

// buildBands constructs the band list for resolution level l: the
// approximation plus detail triples for k = 1..l.
func buildBands(l int) []band {
	bs := make([]band, 0, 1+3*l)
	bs = append(bs, band{k: 0})
	for k := 1; k <= l; k++ {
		for d := 0; d < 3; d++ {
			bs = append(bs, band{k: k, dir: d})
		}
	}
	return bs
}

// bandTable caches the band lists for the levels any realistic pyramid
// uses, so the hot extract/apply/decode paths never allocate them.
var bandTable [33][]band

func init() {
	for l := range bandTable {
		bandTable[l] = buildBands(l)
	}
}

// bandsForLevel lists the bands needed to reconstruct resolution level l.
func bandsForLevel(l int) []band {
	if l >= 0 && l < len(bandTable) {
		return bandTable[l]
	}
	return buildBands(l)
}

// bandGeometry returns the band's side length and its (row, col) origin in
// the Mallat layout.
func (p *Pyramid) bandGeometry(b band) (side, row0, col0 int) {
	c := p.CoarseSide()
	if b.k == 0 {
		return c, 0, 0
	}
	s := c << (b.k - 1)
	switch b.dir {
	case 0: // H: top-right
		return s, 0, s
	case 1: // V: bottom-left
		return s, s, 0
	default: // D: bottom-right
		return s, s, s
	}
}

// diffRect describes the cells of a side-s band grid inside the square of
// radius rNew centred at (cx, cy) but outside the square of radius rOld
// (same centre), clipped to the grid. Rows y0..y1 are enumerated top to
// bottom; a row intersecting the inner square splits into a left run
// [x0, lx1) and a right run [rx0, x1), preserving the row-major cell order
// of the original closure-based enumeration.
type diffRect struct {
	y0, y1, x0, x1 int // outer clip
	iy0, iy1       int // rows where the inner square applies (raw, unclamped test)
	lx1, rx0       int // per-row runs when inside [iy0, iy1)
	hasInner       bool
}

func makeDiffRect(s, cx, cy, rNew, rOld int) diffRect {
	d := diffRect{
		y0: clamp(cy-rNew, 0, s), y1: clamp(cy+rNew, 0, s),
		x0: clamp(cx-rNew, 0, s), x1: clamp(cx+rNew, 0, s),
	}
	if rOld > 0 {
		d.hasInner = true
		d.iy0, d.iy1 = cy-rOld, cy+rOld
		d.lx1 = cx - rOld
		if d.lx1 > d.x1 {
			d.lx1 = d.x1
		}
		if d.lx1 < d.x0 {
			d.lx1 = d.x0
		}
		d.rx0 = cx + rOld
		if d.rx0 < d.x0 {
			d.rx0 = d.x0
		}
		if d.rx0 > d.x1 {
			d.rx0 = d.x1
		}
	}
	return d
}

// count returns the number of cells, computed from the rectangle
// difference instead of enumeration.
func (d diffRect) count() int {
	n := (d.x1 - d.x0) * (d.y1 - d.y0)
	if d.hasInner {
		ih := min(d.iy1, d.y1) - max(d.iy0, d.y0)
		iw := d.rx0 - d.lx1
		if ih > 0 && iw > 0 {
			n -= ih * iw
		}
	}
	return n
}

// rowRuns returns the x-runs [a0,a1) and [b0,b1) of row y.
func (d diffRect) rowRuns(y int) (a0, a1, b0, b1 int) {
	if d.hasInner && y >= d.iy0 && y < d.iy1 {
		return d.x0, d.lx1, d.rx0, d.x1
	}
	return d.x0, d.x1, 0, 0
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// scaleToBand converts a full-resolution coordinate or radius to band
// coordinates (band side s, full side S), rounding radii up so coverage is
// monotone in r.
func scaleToBand(v, s, S int) int { return (v*s + S - 1) / S }

// Chunk is the unit of progressive transmission: the quantized
// coefficients refining one foveal increment at one resolution level. The
// receiver reconstructs cell positions from the header, so only values are
// carried. Band values are stored as raw bytes (two's-complement int8) so
// serialization is a bulk copy; all bands share one backing buffer.
//
// Chunks are pooled: ExtractRegion and DecodeChunk draw from a shared
// sync.Pool, and callers on the steady path should Release a chunk once
// its contents are consumed. Releasing is optional — an unreleased chunk
// is simply garbage-collected.
type Chunk struct {
	Level  int
	X, Y   int // fovea centre, full-resolution coordinates
	R      int // new fovea radius
	PrevR  int // previously transmitted radius (0 = first increment)
	scales []float32
	values [][]byte // per band, in bandsForLevel order; aliases buf
	buf    []byte   // shared backing storage of all band values
}

var chunkPool = sync.Pool{New: func() any { return &Chunk{} }}

// getChunk returns a cleared chunk, reusing pooled storage.
func getChunk() *Chunk {
	ch := chunkPool.Get().(*Chunk)
	ch.scales = ch.scales[:0]
	ch.values = ch.values[:0]
	ch.buf = ch.buf[:0]
	return ch
}

// Release returns the chunk's storage to the shared pool. The chunk (and
// any values obtained from it) must not be used afterwards.
func (ch *Chunk) Release() {
	if ch == nil {
		return
	}
	chunkPool.Put(ch)
}

// growBuf extends ch.buf by n bytes and returns the new segment.
func (ch *Chunk) growBuf(n int) []byte {
	l := len(ch.buf)
	if cap(ch.buf)-l < n {
		nb := make([]byte, l, 2*(l+n))
		copy(nb, ch.buf)
		// Re-point existing band slices at the new backing array.
		off := 0
		for i := range ch.values {
			w := len(ch.values[i])
			ch.values[i] = nb[off : off+w]
			off += w
		}
		ch.buf = nb
	}
	ch.buf = ch.buf[:l+n]
	return ch.buf[l : l+n]
}

// ExtractRegion builds the chunk refining the square of radius r centred
// at (x, y) — full-resolution coordinates — at resolution level l,
// excluding the already-sent square of radius prevR (same centre; pass 0
// after a fovea move). The returned chunk comes from the shared pool;
// Release it when done to keep the steady path allocation-free.
func (p *Pyramid) ExtractRegion(l, x, y, r, prevR int) (*Chunk, error) {
	if l < 0 || l > p.Levels {
		return nil, fmt.Errorf("wavelet: level %d outside [0,%d]", l, p.Levels)
	}
	if r <= prevR {
		return nil, fmt.Errorf("wavelet: radius %d must exceed previous %d", r, prevR)
	}
	ch := getChunk()
	ch.Level, ch.X, ch.Y, ch.R, ch.PrevR = l, x, y, r, prevR
	for _, b := range bandsForLevel(l) {
		side, row0, col0 := p.bandGeometry(b)
		cx, cy := x*side/p.Side, y*side/p.Side
		rNew := scaleToBand(r, side, p.Side)
		rOld := scaleToBand(prevR, side, p.Side)
		d := makeDiffRect(side, cx, cy, rNew, rOld)
		cnt := d.count()
		seg := ch.growBuf(cnt)
		// Pass 1: max |v| over the region, reading coefficients in place.
		var maxAbs float64
		for yy := d.y0; yy < d.y1; yy++ {
			rowBase := (row0+yy)*p.Side + col0
			a0, a1, b0, b1 := d.rowRuns(yy)
			for _, v := range p.coeff[rowBase+a0 : rowBase+a1] {
				if v < 0 {
					v = -v
				}
				if v > maxAbs {
					maxAbs = v
				}
			}
			for _, v := range p.coeff[rowBase+b0 : rowBase+b1] {
				if v < 0 {
					v = -v
				}
				if v > maxAbs {
					maxAbs = v
				}
			}
		}
		scale := float32(maxAbs / 127)
		if scale == 0 {
			scale = 1
		}
		// Pass 2: quantize straight into the chunk's backing buffer.
		s64 := float64(scale)
		j := 0
		for yy := d.y0; yy < d.y1; yy++ {
			rowBase := (row0+yy)*p.Side + col0
			a0, a1, b0, b1 := d.rowRuns(yy)
			for _, v := range p.coeff[rowBase+a0 : rowBase+a1] {
				seg[j] = byte(int8(math.Round(v / s64)))
				j++
			}
			for _, v := range p.coeff[rowBase+b0 : rowBase+b1] {
				seg[j] = byte(int8(math.Round(v / s64)))
				j++
			}
		}
		ch.scales = append(ch.scales, scale)
		ch.values = append(ch.values, seg)
	}
	return ch, nil
}

// Encode serializes the chunk for transmission.
func (ch *Chunk) Encode() []byte {
	return ch.AppendEncode(make([]byte, 0, ch.Size()))
}

// AppendEncode appends the serialized chunk to dst and returns the
// extended slice, allocating only if dst lacks capacity.
func (ch *Chunk) AppendEncode(dst []byte) []byte {
	dst = append(dst, 'W', byte(ch.Level))
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(ch.X))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(ch.Y))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(ch.R))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(ch.PrevR))
	dst = append(dst, hdr[:]...)
	for i := range ch.values {
		var b [8]byte
		binary.LittleEndian.PutUint32(b[0:], math.Float32bits(ch.scales[i]))
		binary.LittleEndian.PutUint32(b[4:], uint32(len(ch.values[i])))
		dst = append(dst, b[:]...)
		dst = append(dst, ch.values[i]...)
	}
	return dst
}

// DecodeChunk parses a serialized chunk. The returned chunk comes from the
// shared pool; Release it when done to keep the steady path
// allocation-free.
func DecodeChunk(data []byte) (*Chunk, error) {
	if len(data) < 18 || data[0] != 'W' {
		return nil, fmt.Errorf("wavelet: malformed chunk header")
	}
	ch := getChunk()
	ch.Level = int(data[1])
	ch.X = int(int32(binary.LittleEndian.Uint32(data[2:])))
	ch.Y = int(int32(binary.LittleEndian.Uint32(data[6:])))
	ch.R = int(int32(binary.LittleEndian.Uint32(data[10:])))
	ch.PrevR = int(int32(binary.LittleEndian.Uint32(data[14:])))
	off := 18
	for range bandsForLevel(ch.Level) {
		if off+8 > len(data) {
			ch.Release()
			return nil, fmt.Errorf("wavelet: truncated chunk band header")
		}
		scale := math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
		cnt := int(binary.LittleEndian.Uint32(data[off+4:]))
		off += 8
		if cnt < 0 || off+cnt > len(data) || off+cnt < off {
			ch.Release()
			return nil, fmt.Errorf("wavelet: truncated chunk band data")
		}
		vals := ch.growBuf(cnt)
		copy(vals, data[off:off+cnt])
		off += cnt
		ch.scales = append(ch.scales, scale)
		ch.values = append(ch.values, vals)
	}
	if off != len(data) {
		ch.Release()
		return nil, fmt.Errorf("wavelet: %d trailing bytes in chunk", len(data)-off)
	}
	return ch, nil
}

// ChunkBound returns the largest encoded chunk ExtractRegion can produce
// for a fovea of radius r at level l of a side × side pyramid decomposed
// levels deep: the chunk header plus, per band, its own header and the
// band cells inside the fovea's square. It is 0 for a level the pyramid
// does not have.
func ChunkBound(side, levels, l, r int) int {
	if l < 0 || l > levels {
		return 0
	}
	n := 18
	c := side >> levels
	for _, b := range bandsForLevel(l) {
		s := c
		if b.k > 0 {
			s = c << (b.k - 1)
		}
		w := clamp(2*scaleToBand(r, s, side), 0, s)
		n += 8 + w*w
	}
	return n
}

// Size returns the encoded size in bytes.
func (ch *Chunk) Size() int {
	n := 18
	for _, v := range ch.values {
		n += 8 + len(v)
	}
	return n
}

// Canvas is the client-side accumulator: received chunks are dequantized
// into a coefficient array mirroring the server's pyramid, from which the
// display image at any covered level can be reconstructed.
type Canvas struct {
	Side   int
	Levels int
	coeff  []float64
}

// NewCanvas creates an empty canvas matching a pyramid's geometry.
func NewCanvas(side, levels int) (*Canvas, error) {
	if err := checkDims(side, levels); err != nil {
		return nil, err
	}
	return &Canvas{Side: side, Levels: levels, coeff: make([]float64, side*side)}, nil
}

// Apply dequantizes a chunk into the canvas.
func (c *Canvas) Apply(ch *Chunk) error {
	if ch.Level > c.Levels {
		return fmt.Errorf("wavelet: chunk level %d exceeds canvas levels %d", ch.Level, c.Levels)
	}
	p := Pyramid{Side: c.Side, Levels: c.Levels}
	for i, b := range bandsForLevel(ch.Level) {
		if i >= len(ch.values) {
			return fmt.Errorf("wavelet: chunk missing band %d", i)
		}
		side, row0, col0 := p.bandGeometry(b)
		cx, cy := ch.X*side/c.Side, ch.Y*side/c.Side
		rNew := scaleToBand(ch.R, side, c.Side)
		rOld := scaleToBand(ch.PrevR, side, c.Side)
		vals := ch.values[i]
		scale := float64(ch.scales[i])
		d := makeDiffRect(side, cx, cy, rNew, rOld)
		cnt := d.count()
		if cnt > len(vals) {
			return fmt.Errorf("wavelet: band %d value underrun", i)
		}
		if cnt < len(vals) {
			return fmt.Errorf("wavelet: band %d has %d extra values", i, len(vals)-cnt)
		}
		j := 0
		for yy := d.y0; yy < d.y1; yy++ {
			rowBase := (row0+yy)*c.Side + col0
			a0, a1, b0, b1 := d.rowRuns(yy)
			row := c.coeff[rowBase+a0 : rowBase+a1]
			for k := range row {
				row[k] = float64(int8(vals[j])) * scale
				j++
			}
			row = c.coeff[rowBase+b0 : rowBase+b1]
			for k := range row {
				row[k] = float64(int8(vals[j])) * scale
				j++
			}
		}
	}
	return nil
}

// Reconstruct renders the canvas at resolution level l.
func (c *Canvas) Reconstruct(l int) (*imagery.Image, error) {
	return InverseLevel(c.coeff, c.Side, c.Levels, l)
}
