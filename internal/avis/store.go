package avis

import (
	"bytes"
	"fmt"
	"hash/maphash"
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
	return fmt.Sprintf("encoded-reply cache of %d entries / %d bytes: %d requests served, %d encodes run",
		e.Entries, e.Bytes, e.Hits+e.Encodes, e.Encodes)
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

// decodeMemo is the client-side mirror of the encoded-reply cache. It maps
// a compressed reply — codec name and bytes — to its decoded length, for
// testbed clients that read nothing but that length (DESIGN §5.3). A key
// match is only a candidate: the memo answers only when its copy of the
// bytes equals the reply. Only successful decodes are recorded, and misses
// are single-flight per key.
// A shared reply — the server's immutable entry, borrowed by gather — is
// answered first by identity (byRef): while the memo holds a reference to
// them, the same codec, address and length are the same bytes.
type decodeMemo struct {
	seed    maphash.Seed
	mu      sync.Mutex
	done    *lru.Policy[memoKey, encodedReply] // cost = len(enc)
	byRef   *lru.Policy[refKey, encodedReply]  // cost = len(enc)
	flights map[memoKey]*encodedFlight
}

// memoKey is a candidate identity of one compressed reply.
type memoKey struct {
	codec string
	sum   uint64
}

// refKey is the identity of one shared reply.
type refKey struct {
	codec string
	at    *byte
	n     int
}

func newDecodeMemo(budget int64) *decodeMemo {
	return &decodeMemo{
		seed:    maphash.MakeSeed(),
		done:    lru.New[memoKey, encodedReply](lru.Config{MaxCost: budget}, nil),
		byRef:   lru.New[refKey, encodedReply](lru.Config{MaxCost: budget}, nil),
		flights: make(map[memoKey]*encodedFlight),
	}
}

// sharedMemo serves every testbed client that does not verify; nil turns
// the memo off. clientReplies and clientDecodes count, process-wide, the
// replies client sessions gathered and the decodes they really ran.
var (
	sharedMemo                   = newDecodeMemo(encodedBudget)
	clientReplies, clientDecodes atomic.Int64
)

// rawLen returns the decoded length of enc under the named codec: by
// identity when enc is shared (immutable), else from the memo when it
// holds these exact bytes, else by running decode — once for however many
// callers miss on the key together — and recording a success. After a
// failed flight or a hash collision the caller decodes its own bytes and
// nothing is recorded, so a bad reply fails every time.
func (m *decodeMemo) rawLen(codec string, enc []byte, shared bool, decode func([]byte) ([]byte, error)) (n int, err error) {
	if shared = shared && len(enc) > 0; shared {
		id := refKey{codec, &enc[0], len(enc)}
		m.mu.Lock()
		r, ok := m.byRef.Get(id)
		m.mu.Unlock()
		if ok {
			return r.rawLen, nil
		}
		defer func() {
			if err == nil {
				m.mu.Lock()
				m.byRef.Put(id, encodedReply{enc: enc, rawLen: n}, int64(len(enc)))
				m.mu.Unlock()
			}
		}()
	}
	key := memoKey{codec, maphash.Bytes(m.seed, enc)}
	m.mu.Lock()
	r, ok := m.done.Get(key)
	f, lead := m.flights[key], false
	if !ok && f == nil {
		kept := enc // shared bytes are kept as they are, others copied
		if !shared {
			kept = bytes.Clone(enc)
		}
		f, lead = &encodedFlight{done: make(chan struct{}), reply: encodedReply{enc: kept}}, true
		m.flights[key] = f
	}
	m.mu.Unlock()
	if lead { // decode the kept bytes: they are what the followers compare against
		data, err := decode(f.reply.enc)
		f.reply.rawLen, f.err = len(data), err
		bufpool.Put(data)
		m.mu.Lock()
		if err == nil {
			m.done.Put(key, f.reply, int64(len(f.reply.enc)))
		}
		delete(m.flights, key)
		m.mu.Unlock()
		close(f.done)
		return f.reply.rawLen, err
	}
	if !ok {
		<-f.done
		r, ok = f.reply, f.err == nil
	}
	if ok && bytes.Equal(r.enc, enc) {
		return r.rawLen, nil
	}
	data, err := decode(enc)
	bufpool.Put(data)
	return len(data), err
}

// DecodeStats counts, process-wide, the replies client sessions received
// and the decompressions run for them.
type DecodeStats struct {
	Replies int64
	Decodes int64
}

// ClientDecodeStats reports the process's client-side decode counters.
// Over TCP and in verifying testbed clients every reply is decoded, so
// there Decodes grows with Replies; elsewhere the gap is the memo working.
func ClientDecodeStats() DecodeStats {
	return DecodeStats{Replies: clientReplies.Load(), Decodes: clientDecodes.Load()}
}

// String is the clause the profiling tools close their summary with.
func (d DecodeStats) String() string {
	return fmt.Sprintf("%d replies decoded by %d decodes", d.Replies, d.Decodes)
}

// Image regenerates the source image for verification (PSNR checks).
func (s *ImageStore) Image(side int, seed int64) *imagery.Image {
	return imagery.Generate(side, seed)
}
