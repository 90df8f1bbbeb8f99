package avis

import (
	"bytes"
	"hash/maphash"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/compress"
	"tunable/internal/lru"
	"tunable/internal/metrics"
	"tunable/internal/vtime"
)

// countingDecoder decodes with one codec and counts its calls.
type countingDecoder struct {
	codec compress.Codec
	calls atomic.Int64
}

func newCountingDecoder(t *testing.T, name string) *countingDecoder {
	t.Helper()
	codec, err := compress.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return &countingDecoder{codec: codec}
}

func (d *countingDecoder) decode(b []byte) ([]byte, error) {
	d.calls.Add(1)
	return d.codec.Decode(b)
}

// encoded compresses a repetitive payload of n bytes and returns both,
// the compressed form in a GC-owned slice.
func encoded(t *testing.T, codec string, n int) (payload, enc []byte) {
	t.Helper()
	c, err := compress.Lookup(codec)
	if err != nil {
		t.Fatal(err)
	}
	payload = make([]byte, n)
	for i := range payload {
		payload[i] = byte(i/7) ^ byte(i%5)
	}
	pooled := c.Encode(payload)
	enc = bytes.Clone(pooled)
	bufpool.Put(pooled)
	if len(enc) == len(payload) {
		t.Fatalf("%s left the payload at %d bytes; the test needs it smaller", codec, len(enc))
	}
	return payload, enc
}

// TestDecodeMemoAnswersOnlyEqualBytes: two replies of one codec and one
// length that differ in a byte are two decodes, and a key match over
// different bytes — what a hash collision looks like — is not an answer.
func TestDecodeMemoAnswersOnlyEqualBytes(t *testing.T) {
	m := newDecodeMemo(encodedBudget)
	raw := newCountingDecoder(t, "raw")
	a := bytes.Repeat([]byte("reply "), 700)
	b := bytes.Clone(a)
	b[len(b)/2] ^= 0xFF
	for i, enc := range [][]byte{a, b, a, b} {
		if n, err := m.rawLen("raw", enc, false, raw.decode); err != nil || n != len(enc) {
			t.Fatalf("call %d: %d, %v; want %d", i, n, err, len(enc))
		}
	}
	if got := raw.calls.Load(); got != 2 {
		t.Fatalf("%d decodes for two distinct replies asked twice each, want 2", got)
	}

	m.mu.Lock()
	m.done.Put(memoKey{"raw", maphash.Bytes(m.seed, b)}, encodedReply{enc: bytes.Clone(a), rawLen: 1}, int64(len(a)))
	m.mu.Unlock()
	if n, err := m.rawLen("raw", b, false, raw.decode); err != nil || n != len(b) || raw.calls.Load() != 3 {
		t.Errorf("a key holding other bytes answered %d (err %v) after %d decodes; want a real decode to %d",
			n, err, raw.calls.Load(), len(b))
	}
}

// TestDecodeMemoKeysOnCodec: the same bytes under another codec name are
// another reply.
func TestDecodeMemoKeysOnCodec(t *testing.T) {
	m := newDecodeMemo(encodedBudget)
	lzw, raw := newCountingDecoder(t, "lzw"), newCountingDecoder(t, "raw")
	payload, enc := encoded(t, "lzw", 8192)
	for round := 0; round < 2; round++ {
		if n, err := m.rawLen("lzw", enc, false, lzw.decode); err != nil || n != len(payload) {
			t.Fatalf("round %d, lzw: %d, %v; want %d", round, n, err, len(payload))
		}
		if n, err := m.rawLen("raw", enc, false, raw.decode); err != nil || n != len(enc) {
			t.Fatalf("round %d, raw: %d, %v; want %d", round, n, err, len(enc))
		}
	}
	if lzw.calls.Load() != 1 || raw.calls.Load() != 1 {
		t.Errorf("decodes lzw %d, raw %d; want one each", lzw.calls.Load(), raw.calls.Load())
	}
}

// TestDecodeMemoNeverRecordsFailure: a reply that does not decode fails
// on every arrival — in sequence and from concurrent callers — with a real
// decode each time, and leaves nothing behind.
func TestDecodeMemoNeverRecordsFailure(t *testing.T) {
	m := newDecodeMemo(encodedBudget)
	bzw := newCountingDecoder(t, "bzw")
	payload, enc := encoded(t, "bzw", 20000)
	bad := enc[:len(enc)-5]
	if _, err := bzw.codec.Decode(bad); err == nil {
		t.Fatal("the truncated reply decodes; the test needs a corrupt one")
	}
	for i := 0; i < 3; i++ {
		if _, err := m.rawLen("bzw", bad, false, bzw.decode); err == nil {
			t.Fatalf("attempt %d of a corrupt reply succeeded", i)
		}
	}
	const callers = 8
	release := make(chan struct{})
	held := func(b []byte) ([]byte, error) {
		<-release
		return bzw.decode(b)
	}
	var started, done sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < callers; i++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			started.Done()
			if _, err := m.rawLen("bzw", bad, false, held); err != nil {
				failed.Add(1)
			}
		}()
	}
	started.Wait()
	// Any interleaving must pass; the pause lets the callers overlap the
	// first failing decode, which is what makes a memo that hands its
	// failure to the others fail.
	time.Sleep(20 * time.Millisecond)
	close(release)
	done.Wait()
	if failed.Load() != callers || bzw.calls.Load() != 3+callers {
		t.Errorf("%d of %d concurrent callers failed after %d decodes in all; want every caller failing on a decode of its own (%d)",
			failed.Load(), callers, bzw.calls.Load(), 3+callers)
	}
	if m.done.Len() != 0 || len(m.flights) != 0 {
		t.Errorf("failures left %d entries and %d flights behind", m.done.Len(), len(m.flights))
	}
	if n, err := m.rawLen("bzw", enc, false, bzw.decode); err != nil || n != len(payload) || m.done.Len() != 1 {
		t.Errorf("the intact reply: %d, %v, %d entries; want %d recorded", n, err, m.done.Len(), len(payload))
	}
}

// TestDecodeMemoSingleFlight: sixteen callers missing on one key together
// share one decode and one answer.
func TestDecodeMemoSingleFlight(t *testing.T) {
	const callers = 16
	m := newDecodeMemo(encodedBudget)
	lzw := newCountingDecoder(t, "lzw")
	payload, enc := encoded(t, "lzw", 30000)
	release := make(chan struct{})
	held := func(b []byte) ([]byte, error) {
		<-release
		return lzw.decode(b)
	}
	var started, done sync.WaitGroup
	lens := make([]int, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			lens[i], errs[i] = m.rawLen("lzw", enc, false, held)
		}(i)
	}
	started.Wait()
	// Any interleaving must pass; the pause lets the callers overlap the
	// held decode, which is what makes a memo without single-flight fail.
	time.Sleep(20 * time.Millisecond)
	close(release)
	done.Wait()
	if got := lzw.calls.Load(); got != 1 {
		t.Errorf("%d decodes for %d concurrent misses on one key, want 1", got, callers)
	}
	for i := range lens {
		if lens[i] != len(payload) || errs[i] != nil {
			t.Errorf("caller %d: %d, %v; want %d", i, lens[i], errs[i], len(payload))
		}
	}
}

// clientCounts reads the process-wide reply and decode counters.
func clientCounts() (replies, decodes int64) { return clientReplies.Load(), clientDecodes.Load() }

// TestVerifyAndTCPDecodeEveryRound: a verifying testbed client and a TCP
// client — even one that renders nothing — decode every reply, repeats
// included.
func TestVerifyAndTCPDecodeEveryRound(t *testing.T) {
	r0, d0 := clientCounts()
	w := testWorld(t, WorldConfig{Params: Params{DR: 64, Codec: "lzw", Level: 4}, Seeds: []int64{1, 2}, Verify: true})
	if w.Client.memo != nil {
		t.Fatal("a verifying client has a decode memo")
	}
	if _, err := w.RunSequence(4); err != nil {
		t.Fatal(err)
	}
	r1, d1 := clientCounts()
	if r1 == r0 || d1-d0 != r1-r0 {
		t.Errorf("verifying world: %d replies, %d decodes; want one decode per reply", r1-r0, d1-d0)
	}

	addr, stop := startRealServer(t)
	defer stop()
	c := dialReal(t, addr, Params{DR: 64, Codec: "bzw", Level: 4})
	defer c.Close()
	reg := metrics.New()
	c.EnableMetrics(reg)
	rounds := 0
	for _, img := range []int{0, 1, 0, 1} {
		st, err := c.FetchImage(img, nil)
		if err != nil {
			t.Fatal(err)
		}
		rounds += st.Rounds
	}
	r2, d2 := clientCounts()
	if r2 == r1 || d2-d1 != r2-r1 {
		t.Errorf("TCP client: %d replies, %d decodes; want one decode per reply", r2-r1, d2-d1)
	}
	if got := reg.Histogram("avis_codec_decode_seconds", "", metrics.L("codec", "bzw")).Count(); got != uint64(rounds) {
		t.Errorf("TCP client: avis_codec_decode_seconds observed %d decodes in %d rounds", got, rounds)
	}
}

// TestUnverifiedWorldDecodesOncePerReply: a testbed client that does not
// verify decodes each distinct reply once, and a world on a cold memo, on
// a warm one and on none ends in exactly the same statistics.
func TestUnverifiedWorldDecodesOncePerReply(t *testing.T) {
	memo := NewDecodeMemo()
	defer SetDecodeMemo(SetDecodeMemo(memo))
	cfg := WorldConfig{Params: Params{DR: 64, Codec: "bzw", Level: 4}, Seeds: []int64{1, 2}}
	run := func() (stats []ImageStat, replies, decodes int64) {
		r0, d0 := clientCounts()
		stats, err := testWorld(t, cfg).RunSequence(4) // each image twice
		if err != nil {
			t.Fatal(err)
		}
		r1, d1 := clientCounts()
		return stats, r1 - r0, d1 - d0
	}
	cold, replies, decodes := run()
	if replies == 0 || decodes > replies/2 || int64(memo.done.Len()) != decodes {
		t.Errorf("cold memo: %d replies, %d decodes, %d entries; want at most one decode per distinct reply, each recorded",
			replies, decodes, memo.done.Len())
	}
	warm, replies, decodes := run()
	if decodes != 0 {
		t.Errorf("warm memo: %d decodes for %d replies it already holds", decodes, replies)
	}
	SetDecodeMemo(nil)
	off, replies, decodes := run()
	if decodes != replies {
		t.Errorf("no memo: %d decodes for %d replies", decodes, replies)
	}
	if !reflect.DeepEqual(cold, warm) || !reflect.DeepEqual(cold, off) {
		t.Errorf("statistics depend on the memo:\ncold %+v\nwarm %+v\noff  %+v", cold, warm, off)
	}
}

// TestMemoHitHandsOutNoBuffer: what the memo answers is a length. exchange
// returns no payload for a round nobody reads, and the memo's copy of a
// reply survives rounds whose payload fetchRound hands to bufpool.Put
// followed by every pooled buffer of its size class being overwritten.
func TestMemoHitHandsOutNoBuffer(t *testing.T) {
	memo := NewDecodeMemo()
	defer SetDecodeMemo(SetDecodeMemo(memo))
	w := testWorld(t, WorldConfig{Params: Params{DR: 64, Codec: "lzw", Level: 4}})
	tap := &replyTap{env: w.Client.env}
	w.Client.env = tap
	req := Request{Image: 0, X: 128, Y: 128, R: 64, Level: 4}
	var rawNs []int
	w.Sim.Spawn("avis-client", func(p *vtime.Proc) {
		w.Client.venv.p = p
		if err := w.Client.connect(); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3; i++ {
			data, rawN, _, err := w.Client.exchange(req, false)
			if err != nil || data != nil {
				t.Errorf("exchange %d: payload %d bytes, err %v; want none for a round nobody reads", i, len(data), err)
			}
			rawNs = append(rawNs, rawN)
		}
		for i := 0; i < 8; i++ {
			if _, _, err := w.Client.fetchRound(req, nil); err != nil {
				t.Error(err)
			}
		}
		w.Client.Close(p)
	})
	if err := w.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tap.replies) != 11 || rawNs[0] == 0 || rawNs[1] != rawNs[0] || rawNs[2] != rawNs[0] {
		t.Fatalf("%d replies tapped, lengths %v", len(tap.replies), rawNs)
	}
	enc := tap.replies[0]
	e, ok := memo.done.Get(memoKey{"lzw", maphash.Bytes(memo.seed, enc)})
	if !ok {
		t.Fatal("the reply was not recorded")
	}
	overwritePool(cap(e.enc))
	if !bytes.Equal(e.enc, enc) || e.rawLen != rawNs[0] {
		t.Error("the memo's copy of the reply was handed out and overwritten")
	}
}

// TestDecodeMemoIdentityIndex: shared replies are answered by (codec,
// address, length) once one has decoded, and only those. A pooled buffer
// reused at one address with other bytes is another reply; a failed
// decode records no identity; the same address under another codec is
// another reply; equal bytes at another address are found by content and
// not decoded again; and the memo keeps the shared bytes, not a copy.
func TestDecodeMemoIdentityIndex(t *testing.T) {
	t.Run("reused pooled buffer", func(t *testing.T) {
		m := newDecodeMemo(encodedBudget)
		raw := newCountingDecoder(t, "raw")
		buf := bufpool.Get(4096)
		for i, fill := range []byte{1, 2} {
			for j := range buf {
				buf[j] = fill ^ byte(j)
			}
			if n, err := m.rawLen("raw", buf, false, raw.decode); err != nil || n != len(buf) {
				t.Fatalf("fill %d: %d, %v", i, n, err)
			}
		}
		if raw.calls.Load() != 2 || m.byRef.Len() != 0 {
			t.Errorf("%d decodes, %d identities for one copied buffer holding two replies in turn; want 2 and none",
				raw.calls.Load(), m.byRef.Len())
		}
		bufpool.Put(buf)
	})
	t.Run("failed decode", func(t *testing.T) {
		m := newDecodeMemo(encodedBudget)
		bzw := newCountingDecoder(t, "bzw")
		_, enc := encoded(t, "bzw", 20000)
		bad := enc[:len(enc)-5]
		for i := 0; i < 2; i++ {
			if _, err := m.rawLen("bzw", bad, true, bzw.decode); err == nil {
				t.Fatalf("attempt %d of a corrupt shared reply succeeded", i)
			}
		}
		if bzw.calls.Load() != 2 || m.byRef.Len() != 0 || m.done.Len() != 0 {
			t.Errorf("%d decodes, %d identities, %d entries; want a decode per attempt and nothing recorded",
				bzw.calls.Load(), m.byRef.Len(), m.done.Len())
		}
	})
	t.Run("codec and address", func(t *testing.T) {
		m := newDecodeMemo(encodedBudget)
		lzw, raw := newCountingDecoder(t, "lzw"), newCountingDecoder(t, "raw")
		payload, enc := encoded(t, "lzw", 8192)
		same := bytes.Clone(enc)
		for round := 0; round < 2; round++ {
			for _, b := range [][]byte{enc, same} {
				if n, err := m.rawLen("lzw", b, true, lzw.decode); err != nil || n != len(payload) {
					t.Fatalf("round %d, lzw: %d, %v; want %d", round, n, err, len(payload))
				}
			}
			if n, err := m.rawLen("raw", enc, true, raw.decode); err != nil || n != len(enc) {
				t.Fatalf("round %d, raw: %d, %v; want %d", round, n, err, len(enc))
			}
		}
		if lzw.calls.Load() != 1 || raw.calls.Load() != 1 || m.byRef.Len() != 3 {
			t.Errorf("decodes lzw %d, raw %d, %d identities; want one decode per codec and three identities",
				lzw.calls.Load(), raw.calls.Load(), m.byRef.Len())
		}
		e, ok := m.done.Get(memoKey{"lzw", maphash.Bytes(m.seed, enc)})
		if !ok || &e.enc[0] != &enc[0] {
			t.Error("the memo keeps a copy of a shared reply")
		}
		// An identity answers without the content entry.
		m.done = lru.New[memoKey, encodedReply](lru.Config{MaxCost: encodedBudget}, nil)
		if n, err := m.rawLen("lzw", enc, true, lzw.decode); err != nil || n != len(payload) || lzw.calls.Load() != 1 {
			t.Errorf("identity lookup: %d, %v after %d decodes", n, err, lzw.calls.Load())
		}
	})
}
