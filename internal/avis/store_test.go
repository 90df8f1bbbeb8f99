package avis

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"tunable/internal/compress"
)

// TestImageStoreEviction drives a store bounded at 2 pyramids through 6
// distinct keys from concurrent single-flight builders: the bound must
// hold, every caller must still get a correct pyramid (evicted or not),
// and re-requesting an evicted key must rebuild rather than fail.
func TestImageStoreEviction(t *testing.T) {
	const (
		cap     = 2
		keys    = 6
		workers = 4
		side    = 64
		levels  = 3
	)
	s := NewImageStoreCap(cap)
	var wg sync.WaitGroup
	errs := make(chan error, keys*workers)
	for k := 0; k < keys; k++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				p, err := s.Pyramid(side, levels, seed)
				if err != nil {
					errs <- fmt.Errorf("seed %d: %v", seed, err)
					return
				}
				if p.Side != side || p.Levels != levels {
					errs <- fmt.Errorf("seed %d: got %dx%d/%d", seed, p.Side, p.Side, p.Levels)
				}
			}(int64(k + 1))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := s.Len(); n > cap {
		t.Fatalf("store holds %d entries, bound is %d", n, cap)
	}
	if s.Evictions() == 0 {
		t.Fatal("expected evictions after inserting more keys than the bound")
	}

	// An evicted key rebuilds: the store was just churned through 6 keys
	// with capacity 2, so seed 1 is long gone; it must come back healthy
	// and identical to a fresh decomposition.
	p, err := s.Pyramid(side, levels, 1)
	if err != nil {
		t.Fatalf("rebuild after eviction: %v", err)
	}
	fresh, err := NewImageStoreCap(1).Pyramid(side, levels, 1)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := p.ExtractRegion(levels, side/2, side/2, side/4, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := fresh.ExtractRegion(levels, side/2, side/2, side/4, 0)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := c1.Encode(), c2.Encode()
	c1.Release()
	c2.Release()
	if string(b1) != string(b2) {
		t.Fatal("rebuilt pyramid differs from a fresh decomposition")
	}
}

// TestImageStoreSingleFlightUnderEviction hammers ONE key from many
// goroutines while other goroutines churn the cache past its bound: every
// caller of the hot key must observe the same (or an equivalent rebuilt)
// pyramid with no error, even when its entry is evicted mid-build.
func TestImageStoreSingleFlightUnderEviction(t *testing.T) {
	const side, levels = 32, 2
	s := NewImageStoreCap(2)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() { // hot key
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := s.Pyramid(side, levels, 42); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func(i int) { // churn: distinct keys force evictions
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := s.Pyramid(side, levels, int64(100+i*8+j)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := s.Len(); n > 2 {
		t.Fatalf("store holds %d entries, bound is 2", n)
	}
}

// encodedTestKey is a 16-coefficient-radius region of a 64² image at a
// grid position derived from i: distinct i, distinct key, equal size.
func encodedTestKey(i int) encodedKey {
	return encodedKey{
		pyramidKey: pyramidKey{side: 64, levels: 3, seed: 7},
		level:      3, x: 16 + 4*(i%8), y: 16 + 4*(i/8), r: 8,
		codec: "raw",
	}
}

// uncachedReply is what key's reply must be, made without the cache.
func uncachedReply(t *testing.T, key encodedKey, codec compress.Codec) []byte {
	t.Helper()
	pyr, err := testStore.Pyramid(key.side, key.levels, key.seed)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := pyr.ExtractRegion(key.level, key.x, key.y, key.r, key.prevR)
	if err != nil {
		t.Fatal(err)
	}
	defer chunk.Release()
	return append([]byte{}, codec.Encode(chunk.AppendEncode(nil))...)
}

// TestEncodedCacheSingleFlight: 16 goroutines asking one cold key cost
// exactly one encode, and all of them get the one shared slice.
func TestEncodedCacheSingleFlight(t *testing.T) {
	raw, _ := compress.Lookup("raw")
	s := NewImageStore()
	key := encodedTestKey(0)
	const callers = 16
	replies := make([]encodedReply, callers)
	errs := make([]error, callers)
	ran := make([]bool, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			replies[i], ran[i], _, errs[i] = s.reply(key, raw)
		}(i)
	}
	close(start)
	wg.Wait()
	want := uncachedReply(t, key, raw)
	encoders := 0
	for i := range replies {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(replies[i].enc, want) || &replies[i].enc[0] != &replies[0].enc[0] {
			t.Errorf("caller %d did not get the shared, correct reply", i)
		}
		if ran[i] {
			encoders++
		}
	}
	if st := s.EncodedStats(); st.Encodes != 1 || encoders != 1 || st.Hits != callers-1 || st.Entries != 1 {
		t.Errorf("%d callers of one cold key: %+v, %d reported encoding; want exactly 1 encode", callers, st, encoders)
	}
}

// TestEncodedCacheBoundAndLifetime runs concurrent sessions' worth of
// requests over a store whose budget holds three replies. While the keys
// in play fit, every key is encoded once however many goroutines want it;
// once they do not, resident bytes still never exceed the budget, every
// reply is still correct, and a reply slice taken before its entry was
// evicted keeps its bytes — eviction only drops the cache's reference.
func TestEncodedCacheBoundAndLifetime(t *testing.T) {
	raw, _ := compress.Lookup("raw")
	size := int64(len(uncachedReply(t, encodedTestKey(0), raw)))
	budget := 3*size + size/2
	s := newImageStore(0, budget)

	const workers, rounds = 8, 40
	hammer := func(keys int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := 0; j < rounds; j++ {
					key := encodedTestKey((w + j) % keys)
					r, _, _, err := s.reply(key, raw)
					if err != nil {
						t.Errorf("key %d: %v", (w+j)%keys, err)
						return
					}
					if int64(len(r.enc)) != size || r.rawLen == 0 {
						t.Errorf("key %d: reply of %d bytes (raw %d), want %d", (w+j)%keys, len(r.enc), r.rawLen, size)
					}
					if st := s.EncodedStats(); st.Bytes > budget {
						t.Errorf("resident %d bytes exceed the budget of %d", st.Bytes, budget)
					}
				}
			}(w)
		}
		wg.Wait()
	}

	hammer(3) // fits
	if st := s.EncodedStats(); st.Encodes != 3 || st.Evictions != 0 || st.Hits != workers*rounds-3 {
		t.Fatalf("3 keys within budget: %+v; want 3 encodes, no evictions", st)
	}
	held, _, _, err := s.reply(encodedTestKey(0), raw)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte{}, held.enc...)

	hammer(12) // four times what fits
	st := s.EncodedStats()
	if st.Evictions == 0 || st.Entries > 3 || st.Bytes > budget {
		t.Fatalf("12 keys over a 3-entry budget: %+v", st)
	}
	// Push key 0 out for certain, then look at the slice taken earlier.
	for i := 20; i < 24; i++ {
		if _, _, _, err := s.reply(encodedTestKey(i), raw); err != nil {
			t.Fatal(err)
		}
	}
	before := s.EncodedStats().Encodes
	again, encoded, _, err := s.reply(encodedTestKey(0), raw)
	if err != nil {
		t.Fatal(err)
	}
	if !encoded || s.EncodedStats().Encodes != before+1 {
		t.Fatal("key 0 was still resident after four newer entries in a three-entry budget")
	}
	want := uncachedReply(t, encodedTestKey(0), raw)
	if !bytes.Equal(held.enc, snapshot) || !bytes.Equal(held.enc, want) || !bytes.Equal(again.enc, want) {
		t.Error("a reply slice taken before its entry was evicted no longer holds the right bytes")
	}
}
