// Package prng holds the module's one deterministic random stream and its
// one label hash. Every seeded decision — sandbox jitter, link loss, fault
// schedules and per-connection drops, synthetic images, the mix harness's
// arrivals — draws from a splitmix64 stream, and a per-label stream is
// seeded from the label's hash, so one seed names one run bit for bit.
package prng

// Splitmix is a splitmix64 generator. It is not safe for concurrent use.
type Splitmix struct{ state uint64 }

// New returns a stream seeded with seed.
func New(seed uint64) *Splitmix { return &Splitmix{state: seed} }

// Next returns the next 64 pseudo-random bits.
func (r *Splitmix) Next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1) from the top 53 bits of Next.
func (r *Splitmix) Float64() float64 { return float64(r.Next()>>11) / float64(1<<53) }

// Hash returns an FNV-1a hash of s. Its offset basis, 1469598103934665603,
// is the standard 14695981039346656037 short of its last digit; it stays,
// because every seeded stream, golden and exact row derives from it.
func Hash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
