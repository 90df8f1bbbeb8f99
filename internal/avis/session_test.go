package avis

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/compress"
	"tunable/internal/netem"
	"tunable/internal/sandbox"
	"tunable/internal/spec"
	"tunable/internal/vtime"
	"tunable/internal/wavelet"
	"tunable/internal/wire"
)

// tapEnv records every request a session sends.
type tapEnv struct {
	env
	reqs []Request
}

func (t *tapEnv) send(msg []byte) error {
	if msg[0] == tagRequest {
		req, _ := DecodeRequest(msg)
		t.reqs = append(t.reqs, req)
	}
	return t.env.send(msg)
}

// sessionTrace is everything the differential test compares.
type sessionTrace struct {
	reqs  []Request
	raws  []int64 // server-side raw bytes, per round
	stats []ImageStat
	pix   [][]uint64 // Float64bits of each reconstructed image
}

// driveScripted runs the differential session on s: two images starting at
// {DR:80, lzw, l=3}, with a scripted steering poll that switches to
// {DR:320, bzw, l=4} at the transition point after the second round — dR
// and codec bite mid-image, the level at the next image. served reads the
// serving side's cumulative raw-byte counter.
func driveScripted(s *session, served func() int64) (tr sessionTrace, err error) {
	tap := &tapEnv{env: s.env}
	s.env = tap
	polls := 0
	s.poll = func() (spec.Config, bool) {
		if polls++; polls != 3 { // 1: before image 0; 2, 3: after its rounds 1, 2
			return nil, false
		}
		_ = s.setCodec("bzw") // the notify_server action
		return Params{DR: 320, Codec: "bzw", Level: 4}.Config(), true
	}
	last := served()
	s.interaction = func(int, int) (int, int, bool) {
		now := served()
		tr.raws = append(tr.raws, now-last)
		last = now
		return 0, 0, false
	}
	if err = s.connect(); err != nil {
		return tr, err
	}
	for img := 0; img < 2; img++ {
		canvas, err := wavelet.NewCanvas(s.geom.Side, s.geom.Levels)
		if err != nil {
			return tr, err
		}
		st, err := s.fetchImage(img, canvas, nil, nil)
		if err != nil {
			return tr, fmt.Errorf("image %d: %w", img, err)
		}
		recon, err := canvas.Reconstruct(st.Level)
		if err != nil {
			return tr, err
		}
		bits := make([]uint64, len(recon.Pix))
		for i, v := range recon.Pix {
			bits[i] = math.Float64bits(v)
		}
		// Wall-clock and virtual durations differ by construction.
		st.Start, st.TransmitTime, st.AvgResponse = 0, 0, 0
		tr.stats = append(tr.stats, st)
		tr.pix = append(tr.pix, bits)
	}
	tr.reqs = tap.reqs
	return tr, nil
}

// TestSessionDifferential drives the same seeded session through the
// virtual-time testbed (World) and through loopback TCP (RealServer and
// RealClient) and requires the two to be indistinguishable in everything
// but time: the request sequence, the raw bytes served per round, the
// per-image statistics (PSNR included) and the reconstructed pixels.
func TestSessionDifferential(t *testing.T) {
	const side, levels = 512, 4
	seeds := []int64{1, 2}
	start := Params{DR: 80, Codec: "lzw", Level: 3}

	w := testWorld(t, WorldConfig{Params: start, Side: side, Levels: levels, Seeds: seeds, Verify: true})
	var sim sessionTrace
	var simErr error
	w.Sim.Spawn("avis-client", func(p *vtime.Proc) {
		w.Client.venv.p = p
		sim, simErr = driveScripted(&w.Client.session, func() int64 { return w.Server.tel.snapshot().RawBytes })
		w.Client.Close(p)
	})
	if err := w.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if simErr != nil {
		t.Fatalf("vtime: %v", simErr)
	}

	srv, err := NewRealServer(side, levels, seeds, testStore)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Shutdown(time.Second)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRealClient(conn, start)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.store, c.seeds = testStore, seeds // verification, as WorldConfig.Verify does
	if err := c.tenv.negotiate(); err != nil {
		t.Fatal(err)
	}
	tcp, err := driveScripted(&c.session, func() int64 { return srv.Stats().RawBytes })
	if err != nil {
		t.Fatalf("tcp: %v", err)
	}

	if len(sim.reqs) != 5 { // image 0: r = 80, 160, then 256 under dR 320; image 1: 320, 512
		t.Fatalf("scripted session made %d rounds, want 5: %+v", len(sim.reqs), sim.reqs)
	}
	if !reflect.DeepEqual(sim.reqs, tcp.reqs) {
		t.Errorf("request sequences differ\n sim %+v\n tcp %+v", sim.reqs, tcp.reqs)
	}
	if !reflect.DeepEqual(sim.raws, tcp.raws) {
		t.Errorf("per-round raw bytes differ\n sim %v\n tcp %v", sim.raws, tcp.raws)
	}
	if !reflect.DeepEqual(sim.stats, tcp.stats) {
		t.Errorf("image stats differ\n sim %+v\n tcp %+v", sim.stats, tcp.stats)
	}
	if sim.stats[0].Level != 3 || sim.stats[1].Level != 4 || sim.stats[1].Codec != "bzw" || sim.stats[1].PSNR < 30 {
		t.Errorf("the mid-session switch did not take: %+v", sim.stats)
	}
	if !reflect.DeepEqual(sim.pix, tcp.pix) {
		t.Error("reconstructed canvases differ bit-wise")
	}

	// The same two environments against the uncached reference, reply by
	// reply, for every codec (each switching to a neighbour and back).
	for _, pair := range [][2]string{{"raw", "lzw"}, {"lzw", "bzw"}, {"bzw", "raw"}} {
		t.Run("replies/"+pair[0], func(t *testing.T) { testReplyDifferential(t, pair[0], pair[1]) })
	}
}

// replyTap keeps the compressed bytes of every reply a session receives,
// as the server cut them: segment payloads and the windows carried by
// reference after them, copied and concatenated per round.
type replyTap struct {
	env
	cur     []byte
	replies [][]byte
}

func (t *replyTap) recv(stall time.Duration) ([]byte, window, error) {
	msg, w, err := t.env.recv(stall)
	if err == nil && msg[0] == tagSegment {
		seg, _ := DecodeSegment(msg)
		t.cur = append(append(t.cur, seg.Payload...), w.b...)
		if seg.Last {
			t.replies = append(t.replies, t.cur)
			t.cur = nil
		}
	}
	return msg, w, err
}

// replyStep is one step of the reply-differential script: announce a
// codec, or make a request.
type replyStep struct {
	notify string
	req    Request
}

// replyScript exercises everything the encoded-reply cache keys on and
// everything it must not hold: repeats of a region, a ring (PrevR > 0), a
// region clipped at the image border, a codec switch and back with the
// same regions under each, and — between valid requests — an image, a
// level and a radius pair the server refuses.
func replyScript(codec, other string) []replyStep {
	centre := Request{Image: 0, X: 128, Y: 128, R: 64, Level: 4}
	ring := Request{Image: 0, X: 128, Y: 128, R: 128, PrevR: 64, Level: 4}
	clipped := Request{Image: 1, X: 10, Y: 250, R: 64, Level: 3}
	return []replyStep{
		{req: centre}, {req: centre}, {req: ring},
		{req: Request{Image: 9, X: 128, Y: 128, R: 64, Level: 4}},
		{req: centre},
		{notify: other},
		{req: centre}, {req: clipped},
		{req: Request{Image: 0, X: 128, Y: 128, R: 64, Level: 9}},
		{req: ring},
		{notify: codec},
		{req: centre}, {req: ring}, {req: clipped},
		{req: Request{Image: 0, X: 128, Y: 128, R: 32, PrevR: 64, Level: 4}},
		{req: clipped},
	}
}

// driveReplies runs script on a connected-to-be session and returns the
// compressed reply of every request step, nil where the server refused.
func driveReplies(s *session, script []replyStep) ([][]byte, error) {
	tap := &replyTap{env: s.env}
	s.env = tap
	if err := s.connect(); err != nil {
		return nil, err
	}
	var got [][]byte
	for i, st := range script {
		if st.notify != "" {
			if err := s.setCodec(st.notify); err != nil {
				return nil, err
			}
			continue
		}
		n := len(tap.replies)
		data, _, _, err := s.exchange(st.req, true)
		var refused *RefusedError
		switch {
		case errors.As(err, &refused):
			got = append(got, nil)
		case err != nil:
			return nil, fmt.Errorf("step %d: %w", i, err)
		case len(tap.replies) != n+1:
			return nil, fmt.Errorf("step %d: %d replies tapped, want 1", i, len(tap.replies)-n)
		default:
			bufpool.Put(data)
			got = append(got, tap.replies[n])
		}
	}
	return got, nil
}

// overwritePool takes buffers from every bufpool size class up to n bytes
// and overwrites them whole, as the pool's next users would.
func overwritePool(n int) {
	for class := 64; class <= n; class *= 2 {
		for i := 0; i < 256; i++ {
			b := bufpool.Get(class)
			b = b[:cap(b)]
			for j := range b {
				b[j] = 0xA5
			}
		}
	}
}

// testReplyDifferential drives replyScript through the testbed and through
// loopback TCP, each on a cold store of its own, and requires every reply
// to be byte-for-byte what the uncached pipeline — ExtractRegion,
// AppendEncode, Codec.Encode — makes of the request, the counters to be
// those of a server that ran that pipeline for every request, refused
// requests to leave nothing in the cache, and a second testbed session on
// the now-warm store to take exactly the virtual time the cold one took.
func testReplyDifferential(t *testing.T, codecName, otherName string) {
	const side, levels = 256, 4
	seeds := []int64{1, 2}
	script := replyScript(codecName, otherName)

	// The uncached reference, and the counters an uncached server ends on.
	var want [][]byte
	wantStats := ServerStats{Notifies: 1} // connect announces the first codec
	entries := map[encodedKey][]byte{}    // the distinct replies: what each cache entry must hold
	largest := 0
	codec, _ := compress.Lookup(codecName)
	for _, st := range script {
		if st.notify != "" {
			codec, _ = compress.Lookup(st.notify)
			wantStats.Notifies++
			continue
		}
		wantStats.Requests++
		var enc []byte
		if st.req.Image < len(seeds) && st.req.Level <= levels {
			pyr, err := testStore.Pyramid(side, levels, seeds[st.req.Image])
			if err != nil {
				t.Fatal(err)
			}
			if chunk, err := pyr.ExtractRegion(st.req.Level, st.req.X, st.req.Y, st.req.R, st.req.PrevR); err == nil {
				raw := chunk.AppendEncode(nil)
				chunk.Release()
				enc = append([]byte{}, codec.Encode(raw)...)
				wantStats.RawBytes += int64(len(raw))
				wantStats.CompressedBytes += int64(len(enc))
				entries[encodedKey{pyramidKey{side, levels, seeds[st.req.Image]},
					st.req.Level, st.req.X, st.req.Y, st.req.R, st.req.PrevR, codec.Name()}] = enc
				largest = max(largest, len(enc))
			}
		}
		if enc == nil {
			wantStats.Errors++
		}
		want = append(want, enc)
	}
	if wantStats.Errors != 3 || len(entries) != 6 {
		t.Fatalf("script has %d refusals and %d distinct replies, want 3 and 6", wantStats.Errors, len(entries))
	}
	wantStats.EncodeCalls = int64(len(entries))
	wantStats.EncodedCacheHits = wantStats.Requests - wantStats.Errors - wantStats.EncodeCalls
	var wantResident int64
	for _, enc := range entries {
		wantResident += int64(len(enc))
	}

	check := func(t *testing.T, got [][]byte, stats ServerStats, store *ImageStore) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%d replies, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("request %d: reply is %d bytes, differs from the uncached reference's %d", i, len(got[i]), len(want[i]))
			}
		}
		if stats != wantStats {
			t.Errorf("server stats %+v\n                want %+v", stats, wantStats)
		}
		if es := store.EncodedStats(); es.Entries != len(entries) || es.Bytes != wantResident || es.Encodes != wantStats.EncodeCalls {
			t.Errorf("store holds %+v, want %d entries / %d bytes from %d encodes: refused requests must leave nothing", es, len(entries), wantResident, wantStats.EncodeCalls)
		}
	}

	simStore := NewImageStore()
	runSim := func() ([][]byte, ServerStats, time.Duration) {
		w, err := NewWorld(WorldConfig{Params: Params{DR: 64, Codec: codecName, Level: 4}, Side: side, Levels: levels, Seeds: seeds, Store: simStore})
		if err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		var simErr error
		w.Sim.Spawn("avis-client", func(p *vtime.Proc) {
			w.Client.venv.p = p
			got, simErr = driveReplies(&w.Client.session, script)
			w.Client.Close(p)
		})
		if err := w.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		if simErr != nil {
			t.Fatalf("vtime: %v", simErr)
		}
		return got, w.Server.tel.snapshot(), w.Sim.Now()
	}
	got, stats, cold := runSim()
	check(t, got, stats, simStore)
	got, stats, warm := runSim()
	if warm != cold {
		t.Errorf("session on a warm store took %v of virtual time, on a cold one %v: a hit must be charged like a miss", warm, cold)
	}
	wantWarm := wantStats
	wantWarm.EncodeCalls, wantWarm.EncodedCacheHits = 0, wantStats.EncodeCalls+wantStats.EncodedCacheHits
	if stats != wantWarm {
		t.Errorf("warm-store server stats %+v\n                           want %+v", stats, wantWarm)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("warm store, request %d: reply differs from the uncached reference", i)
		}
	}
	// The testbed hands the entries over by reference: none may have
	// reached bufpool, so overwriting every buffer it hands out leaves
	// each entry the reference's bytes.
	overwritePool(largest)
	for key, enc := range entries {
		if r, ok := simStore.encoded.Get(key); !ok || !bytes.Equal(r.enc, enc) {
			t.Errorf("encoded-cache entry %+v no longer holds its reply", key)
		}
	}

	tcpStore := NewImageStore()
	srv, err := NewRealServer(side, levels, seeds, tcpStore)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Shutdown(time.Second)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRealClient(conn, Params{DR: 64, Codec: codecName, Level: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.tenv.negotiate(); err != nil {
		t.Fatal(err)
	}
	if got, err = driveReplies(&c.session, script); err != nil {
		t.Fatalf("tcp: %v", err)
	}
	check(t, got, srv.Stats(), tcpStore)
}

// transports runs a scripted server and a client body over each of the
// two environments, bare: no World, no RealServer — just the env pair.
var transports = []struct {
	name string
	run  func(t *testing.T, server func(serverEnv), client func(env))
}{
	{"vtime", func(t *testing.T, server func(serverEnv), client func(env)) {
		sim := vtime.NewSim()
		host := sandbox.NewHost(sim, "host", 450e6)
		link := netem.NewLink(sim, "link", 1e6)
		bind := func(name string, ep *netem.Endpoint, body func(*vtimeEnv)) {
			sb, err := host.NewSandbox(name, 0.5, 0)
			if err != nil {
				t.Fatal(err)
			}
			sim.Spawn(name, func(p *vtime.Proc) {
				body(&vtimeEnv{p: p, ep: ep, sb: sb, out: ep.SendMsg})
				ep.Close()
			})
		}
		bind("server", link.B(), func(e *vtimeEnv) { server(e) })
		bind("client", link.A(), func(e *vtimeEnv) { client(e) })
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}},
	{"tcp", func(t *testing.T, server func(serverEnv), client func(env)) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			nc, err := l.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			server(&tcpEnv{wc: wire.NewConn(nc, 5*time.Second), epoch: time.Now()})
		}()
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		client(&tcpEnv{wc: wire.NewConn(nc, 5*time.Second), epoch: time.Now()})
		nc.Close()
		<-done
	}},
}

// TestSessionCoreOnBothTransports: the protocol decisions the TCP path
// used to lack — a stale-sequence segment is dropped, a segment for the
// wrong image is an error — and the one the two server loops answered
// differently — an unknown tag gets an error frame and the session
// continues — hold on both environments, because they are written once.
func TestSessionCoreOnBothTransports(t *testing.T) {
	geom := Geometry{Side: 256, Levels: 4, NumImages: 2}
	raw := Params{DR: 64, Codec: "raw", Level: 4}
	req := Request{Image: 1, X: 128, Y: 128, R: 32, Level: 4}
	// script answers the client's first request with the given segments.
	script := func(segs func(Request) []Segment) func(serverEnv) {
		return func(e serverEnv) {
			for {
				msg, _, err := e.recv(0)
				if err != nil {
					return
				}
				if msg[0] != tagRequest {
					continue
				}
				got, _ := DecodeRequest(msg)
				for _, seg := range segs(got) {
					_ = e.send(encodeSegment(seg))
				}
			}
		}
	}
	origin := func(e serverEnv) {
		h := &pyramids{geom: geom, seeds: []int64{1, 2}, store: testStore, tel: &serverTelemetry{}, env: e}
		session := newServerSession(geom, h, h.tel)
		if err := session.run(e); err != nil {
			t.Error(err)
		}
	}
	cases := []struct {
		name   string
		server func(serverEnv)
		client func(t *testing.T, s *session)
	}{
		{"stale Seq segment is dropped", script(func(r Request) []Segment {
			return []Segment{
				{Image: r.Image, Seq: r.Seq - 1, Raw: 3, Last: true, Payload: []byte("old")},
				{Image: r.Image, Seq: r.Seq, Raw: 3, Last: true, Payload: []byte("new")},
			}
		}), func(t *testing.T, s *session) {
			data, _, _, err := s.fetchRoundRaw(req, true)
			if err != nil || string(data) != "new" {
				t.Errorf("round returned %q, err %v; want the current attempt's payload", data, err)
			}
			bufpool.Put(data)
		}},
		{"wrong Image segment is an error", script(func(r Request) []Segment {
			return []Segment{{Image: r.Image + 1, Seq: r.Seq, Raw: 3, Last: true, Payload: []byte("???")}}
		}), func(t *testing.T, s *session) {
			if _, _, _, err := s.fetchRoundRaw(req, true); err == nil {
				t.Error("a segment for another image was accepted")
			}
		}},
		{"unknown tag gets an error reply and the session continues", origin, func(t *testing.T, s *session) {
			_ = s.env.send([]byte{'?', 1, 2, 3})
			msg, _, err := s.env.recv(0)
			if err != nil || msg[0] != tagError {
				t.Errorf("garbage answered with %q, err %v; want an error frame", msg, err)
				return
			}
			s.env.release(msg)
			var refused *RefusedError
			if _, _, _, err := s.fetchRoundRaw(Request{Image: 9, R: 32, Level: 4}, true); !errors.As(err, &refused) {
				t.Errorf("out-of-range image: err %v, want the server's refusal", err)
			}
			if rawN, _, err := s.fetchRound(req, nil); err != nil || rawN == 0 {
				t.Errorf("round after the refusals: %d bytes, err %v", rawN, err)
			}
			s.close()
		}},
	}
	for _, tc := range cases {
		for _, tr := range transports {
			t.Run(tc.name+"/"+tr.name, func(t *testing.T) {
				tr.run(t, tc.server, func(e env) {
					codec, _ := compress.Lookup("raw")
					s := &session{env: e, params: raw, codec: codec, geom: geom}
					tc.client(t, s)
				})
			})
		}
	}
}

// TestSharedReplyHeadersShareOneArena: on the testbed, every segment
// header of a shared reply is written into one arena, so a reply of k
// segments makes one header allocation, not k. Each header is capped at
// its own length, so a receiver appending to one cannot reach the next.
func TestSharedReplyHeadersShareOneArena(t *testing.T) {
	const k = 5
	enc := make([]byte, k*DefaultSegmentBytes-100)
	sim := vtime.NewSim()
	sb, err := sandbox.NewHost(sim, "host", 450e6).NewSandbox("server", 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]netem.Message, 0, k)
	allocs := -1.0
	sim.Spawn("server", func(p *vtime.Proc) {
		e := &vtimeEnv{p: p, sb: sb, out: func(_ *vtime.Proc, m netem.Message) { msgs = append(msgs, m) }}
		allocs = testing.AllocsPerRun(50, func() {
			msgs = msgs[:0]
			if err := e.reply(Request{Image: 1, Seq: 9}, 3*len(enc), enc, 0); err != nil {
				t.Error(err)
			}
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 1 {
		t.Errorf("%v allocations per %d-segment reply, want 1", allocs, k)
	}
	if len(msgs) != k {
		t.Fatalf("%d segments, want %d", len(msgs), k)
	}
	for i, m := range msgs {
		seg, err := DecodeSegment(m.Payload)
		if err != nil || seg.Image != 1 || seg.Seq != 9 || seg.Last != (i == k-1) || m.RefAt != i*DefaultSegmentBytes {
			t.Errorf("segment %d: %+v at %d, err %v", i, seg, m.RefAt, err)
		}
		if cap(m.Payload) != segmentHeadLen {
			t.Errorf("segment %d: header capacity %d, want %d", i, cap(m.Payload), segmentHeadLen)
		}
	}
}
