package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tunable/internal/imagery"
	"tunable/internal/wavelet"
)

var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// realChunk is the payload the direct-bulk benchmark workload moves most:
// the middle ring of a DR:208, level-4 fetch of image seed 1 (the third
// request of PlanRounds), 216,758 bytes of serialized wavelet chunk — four
// BZW blocks of real coefficient data.
var realChunk = sync.OnceValue(func() []byte { return ringChunk(312, 208) })

// smallChunk is the direct-small workload's median payload: the middle ring
// (the 32nd of 64) of a DR:16, level-4 fetch of the same image.
var smallChunk = sync.OnceValue(func() []byte { return ringChunk(256, 248) })

var chunkPyramid = sync.OnceValue(func() *wavelet.Pyramid {
	pyr, err := wavelet.Decompose(imagery.Generate(1024, 1), 4)
	if err != nil {
		panic(err)
	}
	return pyr
})

// ringChunk is the serialized level-4 ring between two radii about the
// image centre.
func ringChunk(r, prevR int) []byte {
	ch, err := chunkPyramid().ExtractRegion(4, 512, 512, r, prevR)
	if err != nil {
		panic(err)
	}
	return ch.AppendEncode(nil)
}

// coeffTexture is the quantized-coefficient texture of the golden inputs:
// mostly zeros, occasional small signed values, deterministic.
func coeffTexture(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if h := uint64(i) * 0x9E3779B97F4A7C15; h>>61 == 0 {
			out[i] = byte(int8(h >> 33 & 0x1F))
		}
	}
	return out
}

// goldenInput is one pinned payload. Small inputs pin the encoded stream as
// hex; digest inputs (multi-block, ~100 KB encoded) pin its length and
// SHA-256 instead.
type goldenInput struct {
	name   string
	data   []byte
	digest bool
}

// goldenInputs are fixed, deterministic payloads with the character of the
// wavelet coefficient streams the codecs carry in production: zero runs,
// small signed values, repetitive structure, and noise. The encoded bytes
// for each (codec, input) pair are pinned in testdata/ so kernel rewrites
// cannot drift the wire format.
func goldenInputs() []goldenInput {
	mk := func(n int, f func(i int) byte) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	return []goldenInput{
		{name: "empty", data: []byte{}},
		{name: "one", data: []byte{42}},
		{name: "zeros4k", data: make([]byte, 4096)},
		{name: "ramp", data: mk(2048, func(i int) byte { return byte(i) })},
		{name: "coeffs", data: coeffTexture(6000)},
		{name: "text", data: bytes.Repeat([]byte("wavelets all the way down. "), 80)},
		{name: "noise", data: mk(5000, func(i int) byte {
			h := uint64(i)*6364136223846793005 + 1442695040888963407
			return byte(h >> 57)
		})},
		{name: "lzwblocks", data: mk(3*lzwBlock+17, func(i int) byte { return byte(i % 23) })},
		// Multi-block BZW framing (per-block primary and payload length, the
		// cut at 65,536 input bytes): three blocks of texture, four of real
		// chunk.
		{name: "coeffs150k", data: coeffTexture(150001), digest: true},
		{name: "chunk", data: realChunk(), digest: true},
	}
}

// TestGoldenEncodedBytes pins the exact encoder output for every codec:
// any wire-format change (however subtle) fails here. Run with -update to
// regenerate after an intentional format change.
func TestGoldenEncodedBytes(t *testing.T) {
	for _, name := range Names() {
		codec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range goldenInputs() {
			ext := ".hex"
			if in.digest {
				ext = ".sha256"
			}
			path := filepath.Join("testdata", "golden_"+name+"_"+in.name+ext)
			enc := codec.Encode(in.data)
			got := hex.EncodeToString(enc)
			if in.digest {
				got = fmt.Sprintf("%d %x", len(enc), sha256.Sum256(enc))
			}
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			wantHex, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s/%s: missing golden file (run go test -run Golden -update): %v",
					name, in.name, err)
			}
			want := string(bytes.TrimSpace(wantHex))
			if got != want {
				t.Errorf("%s/%s: encoded bytes differ from golden (wire format changed)",
					name, in.name)
			}
			// The pinned old-format bytes must still decode to the input
			// (a digest pin that matched is the stream just encoded).
			wantBytes := enc
			if !in.digest {
				if wantBytes, err = hex.DecodeString(want); err != nil {
					t.Fatal(err)
				}
			}
			dec, err := codec.Decode(wantBytes)
			if err != nil {
				t.Fatalf("%s/%s: golden bytes no longer decode: %v", name, in.name, err)
			}
			if !bytes.Equal(dec, in.data) {
				t.Fatalf("%s/%s: golden bytes decode to wrong payload", name, in.name)
			}
		}
	}
}
