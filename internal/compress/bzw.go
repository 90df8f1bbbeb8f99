package compress

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tunable/internal/bufpool"
)

// BZW is compression method B: a Bzip2-style block compressor chaining
// run-length coding, the Burrows–Wheeler transform, move-to-front, zero
// run-length coding, and canonical Huffman coding — all implemented from
// scratch. It trades substantially more CPU work than LZW for a better
// compression ratio, recreating the tradeoff the paper exploits in
// Experiment 1.
type BZW struct{}

// NewBZW returns the BZW codec.
func NewBZW() BZW { return BZW{} }

// Name implements Codec.
func (BZW) Name() string { return "bzw" }

// EncodeCost implements Codec.
func (BZW) EncodeCost() float64 { return 5.0 }

// DecodeCost implements Codec.
func (BZW) DecodeCost() float64 { return 2.0 }

// bzwBlock bounds the suffix-sort working set.
const bzwBlock = 64 << 10

// bzwScratch holds the per-stage intermediate buffers of the BZW chain,
// recycled across blocks and calls through a sync.Pool so the steady
// state allocates only the returned output.
type bzwScratch struct {
	a, b, c []byte
}

var bzwPool = sync.Pool{New: func() any { return &bzwScratch{} }}

// Encode implements Codec. Layout: a 4-byte input length, then per block:
// 4-byte primary index, 4-byte payload length, payload (RLE1 → BWT → MTF →
// ZRLE → Huffman of one ≤64 KiB input block).
// The returned buffer is drawn from the shared bufpool; callers that are
// done with it may bufpool.Put it back.
func (BZW) Encode(src []byte) []byte {
	return bzwAppendEncode(bufpool.Get(len(src)/2 + 64)[:0], src)
}

// bzwAppendEncode appends the encoded form of src to dst.
func bzwAppendEncode(dst, src []byte) []byte {
	base := len(dst)
	dst = growBytes(dst, 4)
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(src)))
	sc := bzwPool.Get().(*bzwScratch)
	defer bzwPool.Put(sc)
	for off := 0; off < len(src); off += bzwBlock {
		end := off + bzwBlock
		if end > len(src) {
			end = len(src)
		}
		block := src[off:end]
		r1 := rle1AppendEncode(sc.a[:0], block)
		sc.a = r1[:0]
		bwt, primary := bwtAppendForward(sc.b[:0], r1)
		sc.b = bwt[:0]
		if cap(sc.c) < len(bwt) {
			sc.c = make([]byte, len(bwt), len(bwt)+len(bwt)/4)
		}
		mtf := sc.c[:len(bwt)]
		mtfEncodeInto(mtf, bwt)
		zr := zrleAppendEncode(sc.a[:0], mtf)
		sc.a = zr[:0]
		// Reserve the block header, then Huffman-code straight into dst.
		hdrAt := len(dst)
		dst = growBytes(dst, 8)
		dst = huffAppendEncode(dst, zr)
		binary.LittleEndian.PutUint32(dst[hdrAt:], uint32(primary))
		binary.LittleEndian.PutUint32(dst[hdrAt+4:], uint32(len(dst)-hdrAt-8))
	}
	return dst
}

// bzwMaxSyms bounds the symbols one block can hold at any stage between
// Huffman coding and the inverse BWT. RLE1 turns a run of four into five
// bytes at worst, so a block's BWT column is at most bzwBlock·5/4 bytes;
// ZRLE turns a lone zero rank into two (marker, count) and two lone zeros
// have a non-zero between them, so its stream is at most 3/2 of that, plus
// one for an odd end. A block with more did not come from the encoder:
// refusing it keeps a hostile header from sizing the inverse BWT's
// 4·(n+2)-byte table and keeps a row index inside the packed table's 24 bits.
const bzwMaxSyms = (bzwBlock+bzwBlock/4)*3/2 + 1

// bzwBlockSizeError reports a block of n symbols at some stage.
type bzwBlockSizeError struct{ n int }

func (e *bzwBlockSizeError) Error() string {
	return fmt.Sprintf("compress: bzw block of %d symbols exceeds %d", e.n, bzwMaxSyms)
}

// bzwMaxWave caps the blocks decoded at once: direct-bulk's largest chunk
// is four blocks, and each slot keeps about 0.2 MB of scratch alive.
const bzwMaxWave = 8

// bzwSlot is one block of a wave: its header, the scratch its stages
// rotate through, and what decoding it gave.
type bzwSlot struct {
	primary int
	payload []byte
	a, b    []byte
	r1      []byte // the block before RLE1 decoding; aliases a
	err     error
}

// decode runs the stages that need nothing from the blocks before: Huffman,
// ZRLE+MTF, inverse BWT — for a lone block on the caller's goroutine, for
// several on a wave's workers.
func (s *bzwSlot) decode() ([]byte, error) {
	if len(s.payload) >= 260 {
		if n := binary.LittleEndian.Uint32(s.payload[256:]); n > bzwMaxSyms {
			return nil, &bzwBlockSizeError{int(n)}
		}
	}
	zr, err := huffAppendDecode(s.a[:0], s.payload)
	if err != nil {
		return nil, err
	}
	s.a = zr[:0]
	bwt, err := zrleMTFAppendDecode(s.b[:0], zr)
	if err != nil {
		return nil, err
	}
	s.b = bwt[:0]
	r1, err := bwtAppendInverse(s.a[:0], bwt, s.primary)
	if err == nil {
		s.a = r1[:0]
	}
	return r1, err
}

// bzwWave is the state of one Decode call: the slots of the wave in flight
// and what its workers share. It is pooled whole, with work bound to it
// once, so starting a worker allocates nothing (a closure per block would).
type bzwWave struct {
	slots [bzwMaxWave]bzwSlot
	n     int32        // slots filled in this wave
	next  atomic.Int32 // first slot no worker has claimed
	wg    sync.WaitGroup
	work  func() // decodes slots until none is unclaimed, then wg.Done
}

var bzwWavePool = sync.Pool{New: func() any {
	w := &bzwWave{}
	w.work = func() {
		for i := w.next.Add(1) - 1; i < w.n; i = w.next.Add(1) - 1 {
			s := &w.slots[i]
			s.r1, s.err = s.decode()
		}
		w.wg.Done()
	}
	return w
}}

// run decodes the first n ≥ 1 slots, on this goroutine and one more for
// each slot past the first, and returns when every one of them is done.
func (w *bzwWave) run(n int) {
	w.n = int32(n)
	w.next.Store(0)
	w.wg.Add(n)
	for range n - 1 {
		go w.work()
	}
	w.work()
	w.wg.Wait()
}

// Decode implements Codec. Each block header carries its payload's length,
// so blocks are separable without decoding: Decode reads up to
// min(GOMAXPROCS, bzwMaxWave) headers ahead, decodes those blocks
// concurrently up to the inverse BWT, RLE1-decodes them into the output in
// order, and repeats. A malformed stream gets the verdict of a
// one-block-at-a-time loop: what follows the block that completes the
// announced length is never judged, only seen to be there.
func (BZW) Decode(src []byte) ([]byte, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("compress: bzw header truncated")
	}
	total := int(binary.LittleEndian.Uint32(src))
	// Cap the speculative preallocation against malformed headers claiming
	// absurd lengths; the chain's worst-case expansion is bounded, so a
	// genuine stream grows on demand and the final length check rejects
	// anything else.
	pre := total
	if limit := 1024 * len(src); pre > limit+64 {
		pre = limit + 64
	}
	out, err := bzwAppendDecode(bufpool.Get(pre)[:0], src[4:], total)
	if err != nil {
		bufpool.Put(out)
		return nil, err
	}
	return out, nil
}

// bzwAppendDecode appends the blocks of src to out until it holds total
// bytes. out comes back on error too, for the caller to recycle.
func bzwAppendDecode(out, src []byte, total int) ([]byte, error) {
	width := min(runtime.GOMAXPROCS(0), bzwMaxWave)
	w := bzwWavePool.Get().(*bzwWave)
	defer bzwWavePool.Put(w)
	off := 0
	for len(out) < total {
		// Read ahead as many headers as the encoder would have cut the
		// missing bytes into, up to the first broken one, whose error
		// stands only if the blocks before it leave it needed.
		want := min(width, (total-len(out)+bzwBlock-1)/bzwBlock)
		n := 0
		var hdrErr error
		for at := off; n < want; n++ {
			if at+8 > len(src) {
				hdrErr = fmt.Errorf("compress: bzw block header truncated")
				break
			}
			plen := int(binary.LittleEndian.Uint32(src[at+4:]))
			if plen < 0 || plen > len(src)-at-8 {
				hdrErr = fmt.Errorf("compress: bzw block payload truncated")
				break
			}
			w.slots[n].primary = int(binary.LittleEndian.Uint32(src[at:]))
			w.slots[n].payload = src[at+8 : at+8+plen]
			at += 8 + plen
		}
		if n > 0 {
			w.run(n)
		}
		for i := 0; i < n && len(out) < total; i++ {
			s := &w.slots[i]
			if s.err != nil {
				return out, s.err
			}
			block, err := rle1AppendDecode(out, s.r1)
			if err != nil {
				return out, err
			}
			out = block
			off += 8 + len(s.payload)
			s.payload = nil // the pooled wave must not keep the caller's stream alive
		}
		if n < want && len(out) < total {
			return out, hdrErr
		}
	}
	if len(out) != total {
		return out, fmt.Errorf("compress: bzw length mismatch %d != %d", len(out), total)
	}
	if off != len(src) {
		return out, fmt.Errorf("compress: bzw trailing bytes")
	}
	return out, nil
}
