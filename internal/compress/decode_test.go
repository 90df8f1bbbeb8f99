package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tunable/internal/bufpool"
)

// bytesAllocated runs f n times and returns the heap bytes it allocated.
func bytesAllocated(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// poolsAreLossy reports whether sync.Pool forgets what it is given even
// between a Put and a Get with nothing in between — under the race detector
// it drops a quarter of all Puts, and every pooled buffer and scratch state
// with them, so the tests below can still check what a decode returns but
// not what it allocates.
func poolsAreLossy() bool {
	var p sync.Pool
	misses := 0
	for range 64 {
		p.Put(new(int))
		if p.Get() == nil {
			misses++
		}
	}
	return misses > 4
}

// TestDecodeErrorReturnsOutputBuffer: a decoder that fails after drawing its
// output buffer from the bufpool must put it back. One that drops it
// allocates a fresh buffer on every failing call; one that returns it keeps
// drawing the same one.
func TestDecodeErrorReturnsOutputBuffer(t *testing.T) {
	lossy := poolsAreLossy()
	data := coeffTexture(100 << 10)
	lzw := LZW{}.Encode(data)
	bzw := BZW{}.Encode(data)
	const runs = 200
	for _, c := range []struct {
		name   string
		decode func([]byte) ([]byte, error)
		src    []byte
	}{
		{"lzw truncated", LZW{}.Decode, lzw[:len(lzw)-10]},
		{"lzw bad code", LZW{}.Decode, append(lzw[:len(lzw)/2:len(lzw)/2], 0xFF, 0xFF, 0xFF, 0xFF)},
		{"bzw second header truncated", BZW{}.Decode, bzw[:len(bzw)-3]},
		{"bzw second block's start row out of range", BZW{}.Decode, badSecondPrimary(bzw)},
		{"bzw length mismatch", BZW{}.Decode, withTotal(bzw, len(data)-1)},
		{"bzw trailing bytes", BZW{}.Decode, append(bytes.Clone(bzw), 0)},
	} {
		if _, err := c.decode(c.src); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		got := bytesAllocated(runs, func() { _, _ = c.decode(c.src) })
		if leak := uint64(runs * len(data)); got > leak/2 && !lossy {
			t.Errorf("%s: %d failing decodes allocated %d bytes; dropping the %d-byte output buffer each time costs %d",
				c.name, runs, got, len(data), leak)
		}
	}
}

// badSecondPrimary sets the second block's primary index past its column.
func badSecondPrimary(enc []byte) []byte {
	out := bytes.Clone(enc)
	second := 4 + 8 + int(binary.LittleEndian.Uint32(out[8:]))
	binary.LittleEndian.PutUint32(out[second:], 1<<20)
	return out
}

// damaged flips a bit in the middle of the last block's payload.
func damaged(enc []byte) []byte {
	out := bytes.Clone(enc)
	out[len(out)-40] ^= 0x04
	return out
}

// bzwBlockOf frames one Huffman payload as a one-block stream announcing
// total decoded bytes, its walk starting from row 1.
func bzwBlockOf(total int, payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(total))
	out = binary.LittleEndian.AppendUint32(out, 1)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...)
}

// TestBZWRefusesOversizedBlock pins the one boundary this decoder moved: a
// block whose Huffman stage announces, or whose zero runs expand to, more
// symbols than the encoder can emit for 64 KiB is refused with a
// bzwBlockSizeError before anything is sized from the count — and the
// largest blocks the encoder does emit stay inside the bound.
func TestBZWRefusesOversizedBlock(t *testing.T) {
	var tooBig *bzwBlockSizeError

	// A hostile header: a valid one-symbol table and a symbol count one
	// past the bound, with bits enough to back it.
	var lengths [256]byte
	lengths[0], lengths[1] = 1, 1
	hostile := func(count int) []byte {
		return append(binary.LittleEndian.AppendUint32(bytes.Clone(lengths[:]), uint32(count)),
			make([]byte, (count+7)/8)...)
	}
	if _, err := (BZW{}).Decode(bzwBlockOf(1<<20, hostile(bzwMaxSyms+1))); !errors.As(err, &tooBig) {
		t.Fatalf("block announcing %d symbols: got %v, want a *bzwBlockSizeError", bzwMaxSyms+1, err)
	}
	// At the bound the count is believed, and the block fails later for
	// what it is: bzwMaxSyms marker bytes without their run lengths.
	if _, err := (BZW{}).Decode(bzwBlockOf(1<<20, hostile(bzwMaxSyms))); err == nil || errors.As(err, &tooBig) {
		t.Fatalf("block announcing %d symbols: got %v, want another error", bzwMaxSyms, err)
	}

	// A 13 KB payload: one zero run of "255 and continue" a hundred
	// thousand times, 25 million ranks — a 25 MB column and a 100 MB row
	// table if the count were believed.
	zr := append(append([]byte{0}, bytes.Repeat([]byte{255}, 100_000)...), 1)
	payload := huffEncode(zr)
	alloc := bytesAllocated(20, func() {
		if _, err := (BZW{}).Decode(bzwBlockOf(1000, payload)); !errors.As(err, &tooBig) {
			t.Fatalf("block expanding to 25 million ranks: got %v, want a *bzwBlockSizeError", err)
		}
	})
	if alloc > 20<<20 && !poolsAreLossy() {
		t.Errorf("refusing a %d-byte hostile block 20 times allocated %d bytes", len(payload), alloc)
	}
	if _, err := bwtAppendInverse(nil, make([]byte, bzwMaxSyms+1), 1); !errors.As(err, &tooBig) {
		t.Fatalf("inverse bwt of %d bytes: got %v, want a *bzwBlockSizeError", bzwMaxSyms+1, err)
	}

	// The encoder's worst cases: runs of exactly four (RLE1's 5/4), and a
	// block whose ranks alternate zero and non-zero (ZRLE's 3/2).
	fours := make([]byte, bzwBlock)
	for i := range fours {
		fours[i] = byte(i / 4)
	}
	pairs := make([]byte, bzwBlock)
	for i := range pairs {
		pairs[i] = byte(i / 2 * 37)
	}
	for name, data := range map[string][]byte{"runs of four": fours, "pairs": pairs, "noise": noise(bzwBlock)} {
		d := bzwStages(t, data)
		if len(d.bwt[0]) > bzwBlock*5/4 || len(d.zr[0]) > bzwMaxSyms {
			t.Fatalf("%s: column of %d, zrle stream of %d symbols: past the bound the decoder enforces (%d)",
				name, len(d.bwt[0]), len(d.zr[0]), bzwMaxSyms)
		}
		dec, err := BZW{}.Decode(BZW{}.Encode(data))
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("%s: round trip: %v", name, err)
		}
	}
	if d := bzwStages(t, fours); len(d.r1[0]) != bzwBlock*5/4 {
		t.Fatalf("runs of four: rle1 gives %d bytes, want the worst case %d", len(d.r1[0]), bzwBlock*5/4)
	}
}

// waveStreams are multi-block streams of different shapes and lengths, with
// what they decode to according to the oracle.
func waveStreams(t *testing.T) (streams, want [][]byte) {
	for i := range 16 {
		var data []byte
		switch i % 4 {
		case 0:
			data = coeffTexture(bzwBlock*(1+i/4) + 977*i + 1)
		case 1:
			data = realChunk()[:len(realChunk())-i*1013]
		case 2:
			data = noise(2*bzwBlock + i)
		case 3:
			data = bytes.Repeat([]byte(fmt.Sprintf("stream %d. ", i)), 30000+i)
		}
		enc := BZW{}.Encode(data)
		if i == 15 {
			// Many small blocks: every wave is full.
			enc = bzwConcat(bytes.Split(data[:20000], []byte(" "))...)
		}
		dec, err := oracleBZWDecode(enc)
		if err != nil {
			t.Fatal(err)
		}
		streams, want = append(streams, enc), append(want, dec)
	}
	return streams, want
}

// TestBZWDecodeConcurrent: sixteen goroutines decode different multi-block
// streams at once, at wave widths 1, 2 and 8; every result equals the
// oracle's, a damaged stream among them is still refused, and no goroutine
// Decode started outlives it.
func TestBZWDecodeConcurrent(t *testing.T) {
	streams, want := waveStreams(t)
	bad := damaged(streams[1])
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			before := runtime.NumGoroutine()
			var wg sync.WaitGroup
			for g := range streams {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for rep := range 6 {
						k := (g + rep) % len(streams)
						dec, err := BZW{}.Decode(streams[k])
						if err != nil || !bytes.Equal(dec, want[k]) {
							t.Errorf("GOMAXPROCS %d, stream %d: %d bytes, %v; want %d", procs, k, len(dec), err, len(want[k]))
							return
						}
						bufpool.Put(dec)
						if _, err := (BZW{}).Decode(bad); err == nil {
							t.Errorf("GOMAXPROCS %d: damaged stream accepted", procs)
							return
						}
					}
				}()
			}
			wg.Wait()
			// A worker's last act is wg.Done; give the ones that had not
			// yet left the scheduler a moment to.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("GOMAXPROCS %d: %d goroutines before, %d after", procs, before, after)
			}
		}()
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1), under
// which a wave is one block wide. Its warm-up is as long as the measurement:
// the runtime allocates goroutine descriptors until enough dead ones have
// found their way back to the processor that starts the workers.
func mallocsPerRun(runs int, f func()) float64 {
	for range runs {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestDecodeAllocations: a decode allocates one object — bufpool's handle
// on the output buffer as it is put back — whether a four-block stream is
// decoded on the caller's goroutine or in waves of up to four.
func TestDecodeAllocations(t *testing.T) {
	bzw := BZW{}.Encode(realChunk())
	lzw := LZW{}.Encode(realChunk())
	decode := func(c Codec, enc []byte) func() {
		return func() {
			out, err := c.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			bufpool.Put(out)
		}
	}
	if poolsAreLossy() {
		decode(BZW{}, bzw)()
		decode(LZW{}, lzw)()
		t.Log("sync.Pool is dropping Puts (race detector): allocation counts not checked")
		return
	}
	if n := testing.AllocsPerRun(50, decode(BZW{}, bzw)); n > 1 {
		t.Errorf("BZW.Decode of four blocks, one at a time: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(50, decode(LZW{}, lzw)); n > 1 {
		t.Errorf("LZW.Decode: %v allocs, want 1", n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// Three workers a run: a closure each would read 4.
	if n := mallocsPerRun(400, decode(BZW{}, bzw)); n > 1.25 {
		t.Errorf("BZW.Decode of four blocks in a wave: %.2f allocs, want 1", n)
	}
}
