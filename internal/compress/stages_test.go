package compress

import (
	"bytes"
	"runtime"
	"testing"

	"tunable/internal/bufpool"
)

// bzwStageData holds, for each 64 KiB block of one payload, the buffer
// between every pair of adjacent BZW stages. Stage k encodes bufs[k] into
// bufs[k+1] and decodes the other way, so both directions of a stage are
// measured per byte of the same (decoded-side) buffer.
type bzwStageData struct {
	block, r1, bwt, mtf, zr, huff [][]byte
	primary                       []int
}

func bzwStages(tb testing.TB, src []byte) *bzwStageData {
	d := &bzwStageData{}
	for off := 0; off < len(src); off += bzwBlock {
		block := src[off:min(off+bzwBlock, len(src))]
		r1 := rle1AppendEncode(nil, block)
		bwt, primary := bwtAppendForward(nil, r1)
		mtf := make([]byte, len(bwt))
		mtfEncodeInto(mtf, bwt)
		zr := zrleAppendEncode(nil, mtf)
		d.block = append(d.block, block)
		d.r1 = append(d.r1, r1)
		d.bwt = append(d.bwt, bwt)
		d.primary = append(d.primary, primary)
		d.mtf = append(d.mtf, mtf)
		d.zr = append(d.zr, zr)
		d.huff = append(d.huff, huffAppendEncode(nil, zr))
	}
	return d
}

func totalLen(bufs [][]byte) (n int64) {
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n
}

// benchStage runs fn over every block per iteration and reports throughput
// and ns/B against the decoded-side buffers in.
func benchStage(b *testing.B, in [][]byte, fn func(blk int, scratch []byte) []byte) {
	var scratch []byte
	total := totalLen(in)
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for blk := range in {
			scratch = fn(blk, scratch[:0])[:0]
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*total), "ns/B")
}

// BenchmarkBZWStages is the format-stable stage profile of the BZW chain on
// the real direct-bulk chunk: one row per stage and direction (ZRLE and MTF
// decode are one fused pass, so one row), each per byte of the stage's
// decoded-side buffer (for huff that is per symbol),
// plus two adversarial rows for the suffix sorter so its worst case is a
// number next to the typical one.
func BenchmarkBZWStages(b *testing.B) {
	d := bzwStages(b, realChunk())
	must := func(out []byte, err error) []byte {
		if err != nil {
			b.Fatal(err)
		}
		return out
	}
	stages := []struct {
		name   string
		in     [][]byte
		encode func(blk int, dst []byte) []byte
		decode func(blk int, dst []byte) []byte
	}{
		{"rle1", d.block,
			func(k int, dst []byte) []byte { return rle1AppendEncode(dst, d.block[k]) },
			func(k int, dst []byte) []byte { return must(rle1AppendDecode(dst, d.r1[k])) }},
		{"bwt", d.r1,
			func(k int, dst []byte) []byte { out, _ := bwtAppendForward(dst, d.r1[k]); return out },
			func(k int, dst []byte) []byte { return must(bwtAppendInverse(dst, d.bwt[k], d.primary[k])) }},
		{"mtf", d.bwt,
			func(k int, dst []byte) []byte {
				dst = growBytes(dst, len(d.bwt[k]))
				mtfEncodeInto(dst, d.bwt[k])
				return dst
			}, nil},
		{"zrle", d.mtf,
			func(k int, dst []byte) []byte { return zrleAppendEncode(dst, d.mtf[k]) }, nil},
		{"zrle+mtf", d.bwt, nil,
			func(k int, dst []byte) []byte { return must(zrleMTFAppendDecode(dst, d.zr[k])) }},
		{"huff", d.zr,
			func(k int, dst []byte) []byte { return huffAppendEncode(dst, d.zr[k]) },
			func(k int, dst []byte) []byte { return must(huffAppendDecode(dst, d.huff[k])) }},
	}
	for _, s := range stages {
		if s.encode != nil {
			b.Run(s.name+"/encode", func(b *testing.B) { benchStage(b, s.in, s.encode) })
		}
		if s.decode != nil {
			b.Run(s.name+"/decode", func(b *testing.B) { benchStage(b, s.in, s.decode) })
		}
	}
	// The whole codec over the same payload, for the stages to add up to.
	chunk := [][]byte{realChunk()}
	enc := BZW{}.Encode(chunk[0])
	b.Run("chain/encode", func(b *testing.B) {
		benchStage(b, chunk, func(_ int, dst []byte) []byte { return bzwAppendEncode(dst, chunk[0]) })
	})
	decode := func(int, []byte) []byte {
		bufpool.Put(must(BZW{}.Decode(enc)))
		return nil
	}
	b.Run("chain/decode", func(b *testing.B) { benchStage(b, chunk, decode) })
	// One block at a time on the caller's goroutine: what the kernels give
	// without the block waves.
	b.Run("chain/decode/1proc", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		benchStage(b, chunk, decode)
	})
	// Sorter worst cases: maximal LCPs. "ab"×40,000 has one long periodic
	// run; the second is what RLE1 makes of a zero band (a zero run becomes
	// 00 00 00 00 fb, repeated), the pattern that blew up comparison sorts.
	for _, w := range []struct {
		name string
		data []byte
	}{
		{"bwt/encode/worst-ab", bytes.Repeat([]byte("ab"), 40000)},
		{"bwt/encode/worst-rle1-period5", bytes.Repeat([]byte{0, 0, 0, 0, 251}, 13000)},
	} {
		in := [][]byte{w.data}
		b.Run(w.name, func(b *testing.B) {
			benchStage(b, in, func(_ int, dst []byte) []byte { out, _ := bwtAppendForward(dst, w.data); return out })
		})
	}
}

// BenchmarkLZWStages is the LZW decoder over the chunks the direct-small
// and direct-bulk workloads move most.
func BenchmarkLZWStages(b *testing.B) {
	for _, c := range []struct {
		name string
		data []byte
	}{{"direct-small", smallChunk()}, {"direct-bulk", realChunk()}} {
		in := [][]byte{c.data}
		enc := LZW{}.Encode(c.data)
		b.Run("decode/"+c.name, func(b *testing.B) {
			benchStage(b, in, func(int, []byte) []byte {
				out, err := LZW{}.Decode(enc)
				if err != nil {
					b.Fatal(err)
				}
				bufpool.Put(out)
				return nil
			})
		})
	}
}

// One-shot forms of the stages, for the tests. ZRLE and MTF decode exist
// apart only as the oracles; the round-trip properties of the two encoders
// are checked against those.

func rle1Encode(src []byte) []byte          { return rle1AppendEncode(nil, src) }
func rle1Decode(src []byte) ([]byte, error) { return rle1AppendDecode(nil, src) }
func zrleEncode(src []byte) []byte          { return zrleAppendEncode(nil, src) }
func zrleDecode(src []byte) ([]byte, error) { return oracleZRLEDecode(nil, src) }
func huffEncode(src []byte) []byte          { return huffAppendEncode(nil, src) }
func huffDecode(src []byte) ([]byte, error) { return huffAppendDecode(nil, src) }

func bwtForward(data []byte) ([]byte, int)               { return bwtAppendForward(nil, data) }
func bwtInverse(bwt []byte, primary int) ([]byte, error) { return bwtAppendInverse(nil, bwt, primary) }

func mtfEncode(src []byte) []byte {
	out := make([]byte, len(src))
	mtfEncodeInto(out, src)
	return out
}

func mtfDecode(src []byte) []byte {
	out := make([]byte, len(src))
	oracleMTFDecodeInto(out, src)
	return out
}
