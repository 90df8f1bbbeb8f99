package compress

import (
	"bytes"
	"testing"
	"testing/quick"
)

// corpus builds inputs with the character of wavelet coefficient streams:
// long zero runs, small signed values, some noise.
func corpus() map[string][]byte {
	mk := func(n int, f func(i int) byte) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	return map[string][]byte{
		"empty": {},
		"one":   {42},
		"zeros": make([]byte, 10000),
		"ramp":  mk(4096, func(i int) byte { return byte(i) }),
		"runs":  mk(5000, func(i int) byte { return byte(i / 100) }),
		"noise": mk(8192, func(i int) byte { h := uint64(i) * 0x9E3779B97F4A7C15; return byte(h >> 33) }),
		"sparse": mk(20000, func(i int) byte {
			if i%97 == 0 {
				return byte(i % 251)
			}
			return 0
		}),
		"text":      bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 200),
		"alternate": mk(3000, func(i int) byte { return byte(i % 2 * 255) }),
		"block+1":   make([]byte, bzwBlock+1),
		"twoblocks": mk(2*bzwBlock+100, func(i int) byte { return byte(i % 7) }),
	}
}

func TestCodecsRoundTrip(t *testing.T) {
	for _, name := range Names() {
		codec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for cname, data := range corpus() {
			enc := codec.Encode(data)
			dec, err := codec.Decode(enc)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", name, cname, err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("%s/%s: round trip mismatch (%d vs %d bytes)", name, cname, len(dec), len(data))
			}
		}
	}
}

func TestBZWCompressesBetterThanLZWOnSparseData(t *testing.T) {
	data := corpus()["sparse"]
	lzw, _ := Lookup("lzw")
	bzw, _ := Lookup("bzw")
	ls, bs := len(lzw.Encode(data)), len(bzw.Encode(data))
	if bs >= ls {
		t.Fatalf("bzw %d bytes not smaller than lzw %d on sparse data", bs, ls)
	}
	if bs >= len(data) {
		t.Fatalf("bzw failed to compress: %d >= %d", bs, len(data))
	}
}

func TestTextCompressesWell(t *testing.T) {
	data := corpus()["text"]
	for _, name := range []string{"lzw", "bzw"} {
		c, _ := Lookup(name)
		if r := float64(len(data)) / float64(len(c.Encode(data))); r < 2 {
			t.Fatalf("%s ratio %.2f on repetitive text", name, r)
		}
	}
}

func TestCostOrdering(t *testing.T) {
	lzw, _ := Lookup("lzw")
	bzw, _ := Lookup("bzw")
	raw, _ := Lookup("raw")
	if !(bzw.EncodeCost() > lzw.EncodeCost() && lzw.EncodeCost() > raw.EncodeCost()) {
		t.Fatal("encode cost ordering broken")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("zip9000"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	want := map[string]bool{"lzw": true, "bzw": true, "raw": true}
	if len(names) != 3 {
		t.Fatalf("names %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected codec %q", n)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, name := range []string{"lzw", "bzw"} {
		c, _ := Lookup(name)
		for _, g := range [][]byte{{1, 2}, {255, 255, 255, 255, 9, 9, 9}} {
			if _, err := c.Decode(g); err == nil {
				t.Fatalf("%s accepted garbage %v", name, g)
			}
		}
	}
}

// quick-check properties on the individual BZW stages.

func TestBWTRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		bwt, primary := bwtForward(data)
		back, err := bwtInverse(bwt, primary)
		if err != nil {
			// Empty input is the only case without a valid primary range.
			return len(data) == 0 && len(back) == 0
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBWTKnownVector(t *testing.T) {
	// "banana": sorted rotations of banana$ give BWT annb$aa → without
	// sentinel: annbaa with primary at the sentinel row.
	bwt, primary := bwtForward([]byte("banana"))
	back, err := bwtInverse(bwt, primary)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != "banana" {
		t.Fatalf("got %q", back)
	}
	if string(bwt) != "annbaa" {
		t.Fatalf("bwt %q, want annbaa", bwt)
	}
}

func TestMTFRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(mtfDecode(mtfEncode(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMTFFrontLoading(t *testing.T) {
	// Repeated bytes become zeros after the first occurrence.
	out := mtfEncode([]byte{7, 7, 7, 7})
	if out[1] != 0 || out[2] != 0 || out[3] != 0 {
		t.Fatalf("mtf %v", out)
	}
}

func TestRLE1RoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := rle1Decode(rle1Encode(data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Long runs specifically.
	for _, n := range []int{3, 4, 5, 258, 259, 260, 600, 10000} {
		data := bytes.Repeat([]byte{9}, n)
		dec, err := rle1Decode(rle1Encode(data))
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("run %d: %v", n, err)
		}
	}
}

func TestZRLERoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := zrleDecode(zrleEncode(data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{254, 255, 256, 510, 511} {
		data := make([]byte, n)
		dec, err := zrleDecode(zrleEncode(data))
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("zero run %d: %v", n, err)
		}
	}
}

func TestHuffmanRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := huffDecode(huffEncode(data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Single-symbol input (degenerate tree).
	data := bytes.Repeat([]byte{200}, 1000)
	dec, err := huffDecode(huffEncode(data))
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("degenerate: %v", err)
	}
}

func TestSuffixArraySorted(t *testing.T) {
	data := []byte("mississippi")
	sa := suffixArray(data)
	if len(sa) != len(data)+1 {
		t.Fatalf("len %d", len(sa))
	}
	if sa[0] != int32(len(data)) {
		t.Fatal("sentinel suffix not first")
	}
	suffix := func(i int32) string {
		if int(i) == len(data) {
			return ""
		}
		return string(data[i:])
	}
	for i := 1; i < len(sa); i++ {
		if suffix(sa[i-1]) >= suffix(sa[i]) {
			t.Fatalf("suffixes out of order at %d: %q vs %q", i, suffix(sa[i-1]), suffix(sa[i]))
		}
	}
}

func TestLZWDictionaryResetPath(t *testing.T) {
	// Enough distinct digraphs to overflow 16-bit codes and force a reset.
	data := noise(1 << 21)
	lzw, _ := Lookup("lzw")
	enc := lzw.Encode(data)
	dec, err := lzw.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("round trip across dictionary reset failed")
	}
}

// Property: every registered codec round-trips arbitrary byte strings.
func TestCodecsRoundTripProperty(t *testing.T) {
	for _, name := range Names() {
		codec, _ := Lookup(name)
		f := func(data []byte) bool {
			dec, err := codec.Decode(codec.Encode(data))
			return err == nil && bytes.Equal(dec, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// Property: the canonical Huffman code is prefix-free.
func TestCanonicalCodesPrefixFree(t *testing.T) {
	f := func(data []byte) bool {
		var freq [256]int
		for _, b := range data {
			freq[b]++
		}
		lengths := huffLengths(freq)
		codes := canonicalCodes(lengths)
		type lc struct {
			l byte
			c uint32
		}
		var syms []lc
		for s := 0; s < 256; s++ {
			if lengths[s] > 0 {
				syms = append(syms, lc{l: lengths[s], c: codes[s]})
			}
		}
		for i := range syms {
			for j := range syms {
				if i == j {
					continue
				}
				a, b := syms[i], syms[j]
				if a.l > b.l {
					continue
				}
				// a must not be a prefix of b.
				if b.c>>(b.l-a.l) == a.c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Kraft inequality: sum 2^-len over all symbols ≤ 1 (equality for >1 sym).
func TestHuffmanKraft(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		var freq [256]int
		for _, b := range data {
			freq[b]++
		}
		lengths := huffLengths(freq)
		var sum float64
		syms := 0
		for _, l := range lengths {
			if l > 0 {
				syms++
				sum += 1 / float64(uint64(1)<<l)
			}
		}
		if syms <= 1 {
			return sum <= 1
		}
		return sum > 0.999999 && sum < 1.000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
