package prng

import (
	"hash/fnv"
	"testing"
)

// The streams seed every golden, exact benchmark row and the vtime
// schedule hash, so their first outputs are pinned. Seed 0 is the
// published splitmix64 reference sequence.
func TestStreamsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want [3]uint64
		f    float64
	}{
		{0, [3]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}, 0.8833108082136426},
		{42, [3]uint64{0xbdd732262feb6e95, 0x28efe333b266f103, 0x47526757130f9f52}, 0.7415648787718233},
	} {
		r := New(tc.seed)
		for i, w := range tc.want {
			if got := r.Next(); got != w {
				t.Errorf("seed %d output %d = %#x, want %#x", tc.seed, i, got, w)
			}
		}
		if got := New(tc.seed).Float64(); got != tc.f {
			t.Errorf("seed %d Float64 = %v, want %v", tc.seed, got, tc.f)
		}
	}
}

// Hash keeps its historical offset basis, so it is pinned rather than
// checked against hash/fnv.
func TestHashPinned(t *testing.T) {
	const label = "link:client-server"
	if got := Hash(label); got != 0x5549428c50beaa54 {
		t.Fatalf("Hash(%q) = %#x", label, got)
	}
	h := fnv.New64a()
	h.Write([]byte(label))
	if h.Sum64() == Hash(label) {
		t.Fatal("Hash matches standard FNV-1a: the offset basis changed")
	}
}
