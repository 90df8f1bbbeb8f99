// Package compress implements the two compression methods of the active
// visualization application from scratch: method A, an LZW coder (fast,
// moderate ratio), and method B, a Bzip2-style chain of run-length coding,
// Burrows–Wheeler transform, move-to-front, zero-run coding, and Huffman
// coding (slow, better ratio). The CPU-cost/ratio contrast between the two
// is what produces the crossover of Figure 6(a).
//
// Codecs also carry a CostFactor: the relative processor work per input
// byte charged to the sandbox when the virtual-time experiments compress
// or decompress data. The factors are calibrated in package avis.
//
// # Kernel design
//
// The hot paths are written for throughput and zero steady-state
// allocation; the wire formats are pinned bit-for-bit by the golden tests
// in golden_test.go, so every rewrite below is observable only as speed.
//
// Suffix sorting (bwt.go, sais.go): the Burrows–Wheeler transform of each
// 64 KiB block reads off a suffix array built by induced sorting (SA-IS):
// linear time whatever the block holds — the client picks the region, so
// the content is hostile — in one pooled int32 array. Suffixes are ordered
// "a proper prefix sorts first", which is their order against a virtual
// sentinel below every byte, so the emitted bytes and primary index are
// those of the prefix-doubling sort this replaced (kept in oracle_test.go).
//
// LZW dictionary (lzw.go): the encoder dictionary is a flat array of
// lzwMaxCodes×256 slots indexed by (prefix code << 8 | next byte), each
// slot packing a 16-bit generation tag with the assigned code. Dictionary
// resets — every 1 KiB block and at each 12-bit width ceiling — bump the
// generation instead of clearing 4 MiB; the array is wiped only when the
// tag wraps. The decoder keeps no strings: each already sits in the output
// where it was defined, so an entry is (position, length) and a code
// expands by a forward copy — one eight-byte move when short — behind a
// 64-bit bit reader refilled eight bytes at a time. Neither direction
// allocates per code.
//
// Huffman coding (huffman.go): code lengths come from a pooled builder
// whose node arena and index min-heap are plain slices. Codes are
// canonical, assigned by a counting pass per length. The decoder looks the
// next 11 stream bits up in a table of (symbol, length) filled by ascending
// length, never overwriting, so a shorter code keeps precedence even in a
// table that is not prefix-free; longer codes and the last bits of the
// stream take the one-compare-per-bit canonical walk.
//
// BZW decode (mtfrle.go, bwt.go, bzw.go): ZRLE and MTF decode are one pass;
// the inverse BWT walks one packed table, LF(row)<<8 | L[row], a byte out
// per load, a trap row behind the sentinel row refusing an early visit.
// Headers carry payload lengths, so Decode decodes up to min(GOMAXPROCS, 8)
// blocks at a time concurrently and RLE1-appends them in order, from pooled
// state, and never returns while a goroutine it started runs. The kernels
// these replaced are oracle_test.go's differential oracles. DESIGN.md §5.1
// has the per-stage figures (BenchmarkBZWStages).
//
// Buffer discipline: every stage is append-style (xxxAppendEncode/Decode),
// writing into caller-supplied buffers; the BZW encoder rotates three
// pooled scratch buffers through its five stages, each decoding block two,
// and codec entry points draw their output from the size-classed
// internal/bufpool, which callers may return with bufpool.Put when the
// result has been consumed; a decoder that fails puts its own back.
// Decoder preallocations from attacker-controlled length headers are
// capped by the maximum expansion a genuine stream can achieve, and a BZW
// block of more symbols than the encoder can emit (bzwMaxSyms) is refused
// before anything is sized from it, so malformed input fails cleanly
// instead of allocating gigabytes.
package compress
