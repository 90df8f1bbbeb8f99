package avis

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/compress"
	"tunable/internal/imagery"
	"tunable/internal/lru"
	"tunable/internal/metrics"
	"tunable/internal/wavelet"
)

// DefaultStoreEntries bounds the shared pyramid cache: a 1024²/4-level
// pyramid costs ~10 MiB of coefficients, so 64 entries keep the
// worst-case footprint well under a gigabyte while still covering every
// image set the experiments sweep.
const DefaultStoreEntries = 64

// encodedBudget bounds the encoded-reply cache in bytes. It was sized
// against the reply working sets the repository itself produces: one
// process running the three profile sweeps and the online adaptation
// cycles keeps 75 replies, 5.8 MB, and every reply of a 1024² image at
// full resolution sums to about 1 MB before compression, so the budget
// holds the complete reply sets of some sixty image × codec pairs even
// where nothing compresses — while staying a small fraction of what
// DefaultStoreEntries lets the pyramids themselves hold.
const encodedBudget = 64 << 20

// ImageStore caches decomposed pyramids under an LRU bound, and beside
// them the finished replies cut from them. Building a 1024² pyramid costs
// real milliseconds and tens of megabytes, and profiling sweeps run the
// same images through hundreds of simulated worlds, so pyramids are shared
// (they are read-only after construction); the same sweeps ask every world
// for the same regions under the same codecs, so the extracted, compressed
// reply bytes are shared too. Cache misses are single-flight per key: the
// mutex only guards the replacement policies and the table of replies in
// the making, so the profiler's parallel workers can build pyramids and
// replies for different keys concurrently while duplicate requests for one
// key wait on the one in-flight build. Eviction drops the cache's
// reference only — builders holding an evicted entry finish (and callers
// use) its pyramid or its reply bytes unharmed; the next request for that
// key simply rebuilds.
type ImageStore struct {
	mu       sync.Mutex
	cache    *lru.Policy[pyramidKey, *storeEntry]
	encoded  *lru.Policy[encodedKey, encodedReply] // cost = len(enc)
	encoding map[encodedKey]*encodedFlight

	hits    atomic.Int64 // replies served without encoding
	encodes atomic.Int64 // replies extracted and compressed

	// occupancy instruments, guarded by mu; nil (no-op) unless a
	// RealServer's EnableMetrics ran
	mEncodedBytes     *metrics.Gauge
	mEncodedEvictions *metrics.Counter
}

// pyramidKey identifies one synthetic image's decomposition.
type pyramidKey struct {
	side, levels int
	seed         int64
}

// encodedKey identifies one finished reply: every field that shapes its
// bytes. The pyramid key is its prefix.
type encodedKey struct {
	pyramidKey
	level, x, y, r, prevR int
	codec                 string
}

// encodedReply is one cached reply: the compressed bytes, exactly sized,
// GC-owned and read-only once inserted, and their pre-compression length.
type encodedReply struct {
	enc    []byte
	rawLen int
}

// encodedFlight is one reply in the making that concurrent misses wait on.
type encodedFlight struct {
	done  chan struct{}
	reply encodedReply
	err   error
}

// storeEntry is one single-flight cache slot.
type storeEntry struct {
	once sync.Once
	p    *wavelet.Pyramid
	err  error
}

// NewImageStore creates an empty cache bounded at DefaultStoreEntries.
func NewImageStore() *ImageStore { return NewImageStoreCap(DefaultStoreEntries) }

// NewImageStoreCap creates an empty cache bounded at maxEntries pyramids
// (0 = unlimited, the pre-LRU behavior).
func NewImageStoreCap(maxEntries int) *ImageStore { return newImageStore(maxEntries, encodedBudget) }

func newImageStore(maxEntries int, encodedBytes int64) *ImageStore {
	s := &ImageStore{
		cache:    lru.New[pyramidKey, *storeEntry](lru.Config{MaxEntries: maxEntries}, nil),
		encoding: make(map[encodedKey]*encodedFlight),
	}
	s.encoded = lru.New[encodedKey, encodedReply](lru.Config{MaxCost: encodedBytes},
		func(encodedKey, encodedReply, lru.Reason) { s.mEncodedEvictions.Inc() })
	return s
}

// enableMetrics registers the cache-occupancy families of the encoded-reply
// cache; hits and misses are counted by the servers that cause them.
func (s *ImageStore) enableMetrics(reg *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mEncodedBytes = reg.Gauge("avis_encoded_cache_bytes", "Summed compressed bytes of the encoded replies resident in the image store.")
	s.mEncodedEvictions = reg.Counter("avis_encoded_cache_evictions_total", "Encoded replies the store's byte budget pushed out.")
	s.mEncodedBytes.Set(float64(s.encoded.Cost()))
}

// sharedStore serves all worlds that do not supply their own store.
var sharedStore = NewImageStore()

// SharedStore returns the process-wide pyramid cache.
func SharedStore() *ImageStore { return sharedStore }

// Len reports the number of cached pyramids (including in-flight builds).
func (s *ImageStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Len()
}

// Evictions reports how many pyramids the LRU bound has pushed out.
func (s *ImageStore) Evictions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Evictions()
}

// Pyramid returns the pyramid for a synthetic image identified by
// (side, levels, seed), generating and decomposing it on first use.
func (s *ImageStore) Pyramid(side, levels int, seed int64) (*wavelet.Pyramid, error) {
	return s.pyramid(pyramidKey{side, levels, seed})
}

func (s *ImageStore) pyramid(key pyramidKey) (*wavelet.Pyramid, error) {
	s.mu.Lock()
	e, ok := s.cache.Get(key)
	if !ok {
		e = &storeEntry{}
		s.cache.Put(key, e, 1)
	}
	s.mu.Unlock()
	e.once.Do(func() {
		im := imagery.Generate(key.side, key.seed)
		e.p, e.err = wavelet.Decompose(im, key.levels)
	})
	return e.p, e.err
}

// EncodedStats is a point-in-time snapshot of the encoded-reply cache.
type EncodedStats struct {
	Hits      int64 // replies served without encoding
	Encodes   int64 // replies extracted and compressed
	Entries   int   // replies resident
	Bytes     int64 // their summed compressed size
	Evictions int64 // replies the byte budget has pushed out
}

// EncodedStats reports what the encoded-reply cache has served and holds.
func (s *ImageStore) EncodedStats() EncodedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return EncodedStats{
		Hits:      s.hits.Load(),
		Encodes:   s.encodes.Load(),
		Entries:   s.encoded.Len(),
		Bytes:     s.encoded.Cost(),
		Evictions: s.encoded.Evictions(),
	}
}

// String is the one-line summary the profiling tools close with.
func (e EncodedStats) String() string {
	return fmt.Sprintf("encoded-reply cache: %d requests served, %d encodes run, %d entries / %d bytes resident",
		e.Hits+e.Encodes, e.Encodes, e.Entries, e.Bytes)
}

// reply returns the finished reply for key — the region extracted from
// the image's pyramid, serialized, and compressed with codec (whose name
// is key.codec) — from the cache, or makes it, once however many callers
// miss on it together. The bytes are shared and read-only. encoded
// reports that this call was the one that ran the encoder, for took. A
// request the pyramid refuses is answered with its error and leaves
// nothing behind.
func (s *ImageStore) reply(key encodedKey, codec compress.Codec) (r encodedReply, encoded bool, took time.Duration, err error) {
	s.mu.Lock()
	if r, ok := s.encoded.Get(key); ok {
		s.mu.Unlock()
		s.hits.Add(1)
		return r, false, 0, nil
	}
	if f, ok := s.encoding[key]; ok {
		s.mu.Unlock()
		<-f.done
		if f.err == nil {
			s.hits.Add(1)
		}
		return f.reply, false, 0, f.err
	}
	f := &encodedFlight{done: make(chan struct{})}
	s.encoding[key] = f
	s.mu.Unlock()

	f.reply, took, f.err = s.encode(key, codec)
	s.mu.Lock()
	if f.err == nil {
		s.encoded.Put(key, f.reply, int64(len(f.reply.enc)))
		s.mEncodedBytes.Set(float64(s.encoded.Cost()))
	}
	delete(s.encoding, key)
	s.mu.Unlock()
	close(f.done)
	return f.reply, f.err == nil, took, f.err
}

// encode is the miss path: extract, serialize, compress, and copy the
// result out of the pooled buffers into an exactly sized slice.
func (s *ImageStore) encode(key encodedKey, codec compress.Codec) (encodedReply, time.Duration, error) {
	pyr, err := s.pyramid(key.pyramidKey)
	if err != nil {
		return encodedReply{}, 0, err
	}
	chunk, err := pyr.ExtractRegion(key.level, key.x, key.y, key.r, key.prevR)
	if err != nil {
		return encodedReply{}, 0, err
	}
	raw := chunk.AppendEncode(bufpool.Get(chunk.Size())[:0])
	chunk.Release()
	t0 := time.Now()
	enc := codec.Encode(raw)
	took := time.Since(t0)
	s.encodes.Add(1)
	r := encodedReply{enc: append(make([]byte, 0, len(enc)), enc...), rawLen: len(raw)}
	bufpool.Put(raw)
	bufpool.Put(enc)
	return r, took, nil
}

// Image regenerates the source image for verification (PSNR checks).
func (s *ImageStore) Image(side int, seed int64) *imagery.Image {
	return imagery.Generate(side, seed)
}

// RandomInteraction builds a deterministic user-interaction model for the
// client: at each round, with probability prob (in 1/256ths), the fovea
// jumps to a pseudo-random position in the image, restarting the
// progressive transmission there — the check_for_user_interaction effect
// of Figure 2. side is the full-resolution image side.
func RandomInteraction(seed int64, side int, prob256 int) func(img, round int) (int, int, bool) {
	state := uint64(seed)*0x9E3779B97F4A7C15 + 0xD6E8FEB86659FD93
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	return func(img, round int) (int, int, bool) {
		h := next()
		if int(h&0xFF) >= prob256 {
			return 0, 0, false
		}
		margin := side / 8
		span := uint64(side - 2*margin)
		x := margin + int((h>>8)%span)
		y := margin + int((h>>32)%span)
		return x, y, true
	}
}
