package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"time"

	"tunable/internal/avis"
	"tunable/internal/bufpool"
	"tunable/internal/compress"
	"tunable/internal/imagery"
	"tunable/internal/wavelet"
	"tunable/internal/wire"
)

// Geometry of the session workloads: the paper's 1024² images, 4 levels.
const (
	imgSide   = 1024
	imgLevels = 4
	numImages = 4
	nClients  = 2 // closed-loop viewers; the box has 2 cores
)

var imgSeeds = []int64{1, 2, 3, 4}

// origin is an avis.RealServer on a loopback listener with its own
// pyramid store.
type origin struct {
	store *avis.ImageStore
	srv   *avis.RealServer
	ln    net.Listener
	done  chan struct{}
}

func startOrigin() (*origin, error) {
	o := &origin{store: avis.NewImageStoreCap(0), done: make(chan struct{})}
	for _, s := range imgSeeds {
		if _, err := o.store.Pyramid(imgSide, imgLevels, s); err != nil {
			return nil, fmt.Errorf("pyramid fill: %w", err)
		}
	}
	srv, err := avis.NewRealServer(imgSide, imgLevels, imgSeeds, o.store)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("origin listener: %w", err)
	}
	o.srv, o.ln = srv, ln
	go func() {
		defer close(o.done)
		_ = srv.Serve(ln) // returns net.ErrClosed on Shutdown
	}()
	return o, nil
}

func (o *origin) addr() string { return o.ln.Addr().String() }

// stop drains the server and waits for its accept loop to exit.
func (o *origin) stop() {
	o.srv.Shutdown(2 * time.Second)
	<-o.done
}

// dialAvis opens one connected avis client.
func dialAvis(addr string, p avis.Params) (*avis.RealClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c, err := avis.NewRealClient(conn, p)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.SetIOTimeout(30 * time.Second) // a wedged round fails the op instead of hanging the run
	if err := c.Connect(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("connect %s: %w", addr, err)
	}
	return c, nil
}

// directSpec shapes one of the two client->origin workloads.
type directSpec struct {
	params        avis.Params
	imagesPerPass int // per client
}

func runDirectSmall(rc *runCtx) (*result, error) {
	return runDirect(rc, directSpec{
		params:        avis.Params{DR: 16, Codec: "lzw", Level: 4},
		imagesPerPass: rc.scale(12, 1),
	})
}

// DR 208 makes 5 rings per image. With an even count (DR 320 makes 4) the
// median round sits on the boundary between two ring sizes and flips from
// one to the other run to run; with 5 it is the middle ring.
func runDirectBulk(rc *runCtx) (*result, error) {
	return runDirect(rc, directSpec{
		params:        avis.Params{DR: 208, Codec: "bzw", Level: 4},
		imagesPerPass: rc.scale(5, 2),
	})
}

// viewer is one closed-loop client with its pre-allocated canvas and seeded
// image order.
type viewer struct {
	tally
	c      *avis.RealClient
	canvas *wavelet.Canvas
	order  *rand.Rand
}

// imageOrder is the seeded request sequence of one client: which image each
// successive fetch targets.
func imageOrder(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client)))
}

// fetchImages is the measured loop of one client: n whole images, each
// round timed on its own. wantRaw[img][i] is the pre-compression size the
// i-th round of img must deliver — the cheap correctness check that stays
// on the clock.
func (v *viewer) fetchImages(n int, p avis.Params, wantRaw [][]int) {
	geom := v.c.Geometry()
	for k := 0; k < n; k++ {
		img := v.order.Intn(numImages)
		t0 := time.Now()
		ok := true
		for i, req := range avis.PlanRounds(geom, p, img, 0) {
			r0 := time.Now()
			rawN, _, err := v.c.FetchRound(req, v.canvas)
			d := time.Since(r0)
			v.attempted++
			if err != nil {
				// The connection is in an unknown state; the client stops
				// and the rounds it never sent are not attempted.
				v.failed++
				return
			}
			if rawN != wantRaw[img][i] {
				v.failed++
				ok = false
				continue
			}
			v.ops = append(v.ops, ms(d))
		}
		if ok {
			v.units = append(v.units, ms(time.Since(t0)))
		}
	}
}

// referenceImage applies the rounds of one image in-process — extract and
// apply, no codec, no network — and returns the reconstruction plus the raw
// size of each round's chunk.
func referenceImage(store *avis.ImageStore, geom avis.Geometry, p avis.Params, img int) ([]float64, []int, error) {
	pyr, err := store.Pyramid(imgSide, imgLevels, imgSeeds[img])
	if err != nil {
		return nil, nil, err
	}
	canvas, err := wavelet.NewCanvas(imgSide, imgLevels)
	if err != nil {
		return nil, nil, err
	}
	var sizes []int
	for _, req := range avis.PlanRounds(geom, p, img, 0) {
		ch, err := pyr.ExtractRegion(req.Level, req.X, req.Y, req.R, req.PrevR)
		if err != nil {
			return nil, nil, err
		}
		sizes = append(sizes, ch.Size())
		err = canvas.Apply(ch)
		ch.Release()
		if err != nil {
			return nil, nil, err
		}
	}
	im, err := canvas.Reconstruct(p.Level)
	if err != nil {
		return nil, nil, err
	}
	return im.Pix, sizes, nil
}

func samePixels(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runDirect(rc *runCtx, spec directSpec) (*result, error) {
	res := &result{}
	var (
		org     *origin
		viewers []*viewer
	)
	clients := nClients
	if rc.trace {
		clients = 1
	}
	teardown, err := res.timeSetup(rc, func() (func(), error) {
		o, err := startOrigin()
		if err != nil {
			return nil, err
		}
		vs := make([]*viewer, clients)
		for i := range vs {
			c, err := dialAvis(o.addr(), spec.params)
			if err != nil {
				for _, v := range vs[:i] {
					_ = v.c.Close()
				}
				o.stop()
				return nil, err
			}
			vs[i] = &viewer{c: c, order: imageOrder(rc.seed, i)}
		}
		org, viewers = o, vs
		return func() {
			for _, v := range vs {
				_ = v.c.Close()
			}
			o.stop()
		}, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	geom := viewers[0].c.Geometry()

	// Warm-up, off the clock: every client fetches every image onto a fresh
	// canvas and must reconstruct exactly what applying the same chunks
	// in-process gives.
	wantRaw := make([][]int, numImages)
	for img := 0; img < numImages; img++ {
		ref, sizes, err := referenceImage(org.store, geom, spec.params, img)
		if err != nil {
			return nil, fmt.Errorf("reference image %d: %w", img, err)
		}
		wantRaw[img] = sizes
		for ci, v := range viewers {
			canvas, err := wavelet.NewCanvas(imgSide, imgLevels)
			if err != nil {
				return nil, err
			}
			for _, req := range avis.PlanRounds(geom, spec.params, img, 0) {
				res.attempted++
				if _, _, err := v.c.FetchRound(req, canvas); err != nil {
					res.failed++
					return res, fmt.Errorf("warm-up round: %w", err)
				}
			}
			got, err := canvas.Reconstruct(spec.params.Level)
			if err != nil {
				return nil, err
			}
			if !samePixels(got.Pix, ref) {
				res.problemf("client %d image %d: reconstruction over TCP differs from the in-process reference", ci, img)
			}
		}
	}
	for _, v := range viewers {
		v.canvas, err = wavelet.NewCanvas(imgSide, imgLevels)
		if err != nil {
			return nil, err
		}
		v.ops = make([]float64, 0, 1<<18)
		v.units = make([]float64, 0, 1<<14)
	}

	tallies := make([]*tally, len(viewers))
	for i, v := range viewers {
		tallies[i] = &v.tally
	}
	pass := func() int {
		return res.passOf(tallies, func(i int) {
			viewers[i].fetchImages(spec.imagesPerPass, spec.params, wantRaw)
		})
	}
	pass() // fills pools and the server's per-connection state
	res.ops, res.units = res.ops[:0], res.units[:0]

	if !rc.trace {
		res.measure(rc, 3, pass)
		return res, nil
	}

	// Traced run: one client. Untraced reference passes; then the same
	// images again with a span per real round, back to back so the rounds
	// run as hot as the untraced ones; then a shadow replay of every round.
	v := viewers[0]
	v.order = imageOrder(rc.seed, 0)
	res.measure(rc.quarter(), 1, pass)
	v.order = imageOrder(rc.seed, 0)
	untraced := median(res.ops)
	images := len(res.units)

	rec := newRecorder()
	var done []tracedRound
	var raw int64
	t0 := time.Now()
	for k := 0; k < images; k++ {
		img := v.order.Intn(numImages)
		for _, req := range avis.PlanRounds(geom, spec.params, img, 0) {
			res.attempted++
			id := rec.begin("round", -1, len(done))
			data, _, err := v.c.FetchRoundRaw(req)
			if err == nil {
				// what FetchRound does with the payload
				var ch *wavelet.Chunk
				if ch, err = wavelet.DecodeChunk(data); err == nil {
					err = v.canvas.Apply(ch)
					ch.Release()
				}
			}
			rec.end(id)
			if err != nil {
				res.failed++
				return res, fmt.Errorf("traced round: %w", err)
			}
			done = append(done, tracedRound{req: req, span: id, sum: crc32.ChecksumIEEE(data), n: len(data)})
			raw += int64(len(data))
			bufpool.Put(data)
		}
	}
	wall := time.Since(t0).Seconds()

	sh, err := newShadow(org.store, spec.params.Codec)
	if err != nil {
		return nil, err
	}
	defer sh.close()
	for op, tr := range done {
		got, err := sh.originRound(rec, tr.span, op, tr.req, v.canvas)
		if err != nil {
			return nil, fmt.Errorf("shadow replay: %w", err)
		}
		if !tr.same(got) {
			res.failed++
			res.problemf("round %d %+v: shadow payload differs from the real round's", op, tr.req)
		}
		bufpool.Put(got)
	}

	L := sessionLayers(rec, sh, spec.params.Codec)
	L["avis.raw_mb_s"] = float64(raw) / 1e6 / wall
	L["trace.overhead_ratio"] = rec.medianNS("round") / 1e6 / untraced
	res.runtimeLayers(L)
	if err := sessionProbes(L, org, sh, spec.params); err != nil {
		return nil, err
	}
	res.layers, res.rec = L, rec
	return res, nil
}

// tracedRound remembers one real round of a traced pass until its shadow
// replay: the request, its span, and a checksum of the payload it delivered.
type tracedRound struct {
	req  avis.Request
	span int
	sum  uint32
	n    int
	hit  bool // edge-revisit: served from the proxy's cache
}

func (tr tracedRound) same(payload []byte) bool {
	return len(payload) == tr.n && crc32.ChecksumIEEE(payload) == tr.sum
}

// shadow replays one round's work through the layers' exported functions,
// in the order RealServer.serveReal and RealClient.FetchRoundRaw call them,
// so each call can be timed from outside.
type shadow struct {
	store    *avis.ImageStore
	codec    compress.Codec
	ln       net.Listener
	tx, rx   *wire.Conn // the two ends of a loopback pair, negotiated like a real session
	txc, rxc net.Conn
	// negotiateNS is how long the version handshake on the pair took.
	negotiateNS float64
	hops        int // replies sent across the pair
	frames      int // frames those replies were split into
	rawBytes    int64
	encBytes    int64
}

func newShadow(store *avis.ImageStore, codec string) (*shadow, error) {
	c, err := compress.Lookup(codec)
	if err != nil {
		return nil, err
	}
	s := &shadow{store: store, codec: c}
	if err := s.dialPair(); err != nil {
		return nil, err
	}
	return s, nil
}

// dialPair builds the loopback pair and negotiates wire v2 on it.
func (s *shadow) dialPair() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("shadow listener: %w", err)
	}
	s.ln = ln
	type accepted struct {
		c   net.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acc <- accepted{c, err}
	}()
	s.rxc, err = net.Dial("tcp", ln.Addr().String())
	a := <-acc
	if err != nil || a.err != nil {
		return fmt.Errorf("shadow pair: dial %v, accept %v", err, a.err)
	}
	s.txc = a.c
	s.tx, s.rx = wire.NewConn(s.txc, 0), wire.NewConn(s.rxc, 0)
	// rx plays the client: it probes, tx (the server end) accepts.
	t0 := time.Now()
	errc := make(chan error, 1)
	go func() {
		msg, err := s.tx.ReadMsg()
		if err == nil {
			err = s.tx.AcceptV2(msg, 0)
			bufpool.Put(msg)
		}
		errc <- err
	}()
	err = s.rx.StartClient(0)
	if aerr := <-errc; err == nil {
		err = aerr
	}
	s.negotiateNS = float64(time.Since(t0))
	if err != nil {
		return fmt.Errorf("shadow negotiate: %w", err)
	}
	return nil
}

func (s *shadow) close() {
	if s.txc != nil {
		s.txc.Close()
	}
	if s.rxc != nil {
		s.rxc.Close()
	}
	if s.ln != nil {
		s.ln.Close()
	}
}

// extract is the origin's share of a round up to the raw chunk bytes:
// store lookup, region extract, chunk encode.
func (s *shadow) extract(rec *recorder, parent, op int, req avis.Request) ([]byte, error) {
	var (
		pyr *wavelet.Pyramid
		ch  *wavelet.Chunk
		err error
	)
	rec.time("avis.store_lookup", parent, op, func() {
		pyr, err = s.store.Pyramid(imgSide, imgLevels, imgSeeds[req.Image])
	})
	if err != nil {
		return nil, err
	}
	rec.time("wavelet.extract", parent, op, func() {
		ch, err = pyr.ExtractRegion(req.Level, req.X, req.Y, req.R, req.PrevR)
	})
	if err != nil {
		return nil, err
	}
	var raw []byte
	rec.time("wavelet.chunk_encode", parent, op, func() {
		raw = ch.AppendEncode(bufpool.Get(ch.Size())[:0])
		ch.Release()
	})
	return raw, nil
}

// hop sends raw across the loopback pair the way one protocol hop does:
// codec encode, segments written in one vectored write, frames read and
// their segment headers decoded, codec decode. The write runs beside the
// reads — a large reply does not fit the socket buffers — so the two spans
// overlap and self-time arithmetic must not count the overlap twice. It
// returns the decoded payload (a pooled buffer).
func (s *shadow) hop(rec *recorder, parent, op int, req avis.Request, raw []byte) ([]byte, error) {
	name := "compress." + s.codec.Name()
	var enc []byte
	rec.time(name+".encode", parent, op, func() { enc = s.codec.Encode(raw) })
	s.hops++
	s.rawBytes += int64(len(raw))
	s.encBytes += int64(len(enc))

	// A small reply fits the socket buffers and is written before it is
	// read, so the spans are clean; a large one is written by a goroutine
	// beside the reads, and the two spans overlap.
	type wrote struct {
		start, end time.Duration
		err        error
	}
	write := func() wrote {
		w := wrote{start: time.Since(rec.epoch)}
		w.err = avis.WriteSegmentsWire(s.tx, req.Image, req.Seq, len(raw), enc, 0, nil)
		w.end = time.Since(rec.epoch)
		return w
	}
	wc := make(chan wrote, 1)
	if len(enc) <= 32<<10 {
		wc <- write()
	} else {
		go func() { wc <- write() }()
	}
	compressed := bufpool.Get(1 << 12)[:0]
	var rerr error
	for {
		var msg []byte
		rec.time("wire.read", parent, op, func() { msg, rerr = s.rx.ReadMsg() })
		if rerr != nil {
			break
		}
		var seg avis.Segment
		rec.time("avis.segment_decode", parent, op, func() { seg, rerr = avis.DecodeSegment(msg) })
		if rerr != nil {
			bufpool.Put(msg)
			break
		}
		s.frames++
		compressed = append(compressed, seg.Payload...)
		last := seg.Last
		bufpool.Put(msg)
		if last {
			break
		}
	}
	w := <-wc
	rec.spans = append(rec.spans, span{Name: "wire.write", Start: int64(w.start), End: int64(w.end), Parent: parent, Op: op})
	bufpool.Put(enc)
	if rerr == nil {
		rerr = w.err
	}
	if rerr != nil {
		bufpool.Put(compressed)
		return nil, rerr
	}
	var data []byte
	rec.time(name+".decode", parent, op, func() { data, rerr = s.codec.Decode(compressed) })
	bufpool.Put(compressed)
	return data, rerr
}

// originRound shadows one client->origin round end to end, applying the
// chunk to canvas as FetchRound does. It returns the decoded payload.
func (s *shadow) originRound(rec *recorder, parent, op int, req avis.Request, canvas *wavelet.Canvas) ([]byte, error) {
	raw, err := s.extract(rec, parent, op, req)
	if err != nil {
		return nil, err
	}
	data, err := s.hop(rec, parent, op, req, raw)
	bufpool.Put(raw)
	if err != nil {
		return nil, err
	}
	var ch *wavelet.Chunk
	rec.time("wavelet.chunk_decode", parent, op, func() { ch, err = wavelet.DecodeChunk(data) })
	if err != nil {
		return nil, err
	}
	rec.time("wavelet.canvas_apply", parent, op, func() {
		err = canvas.Apply(ch)
		ch.Release()
	})
	return data, err
}

// sessionLayers turns the spans of a traced session run into layer metrics.
func sessionLayers(rec *recorder, sh *shadow, codec string) map[string]float64 {
	L := map[string]float64{}
	us := func(name string) float64 { return rec.medianNS(name) / 1e3 }
	L["avis.store_lookup_ns"] = rec.medianNS("avis.store_lookup")
	L["wavelet.extract_us"] = us("wavelet.extract")
	L["wavelet.chunk_encode_us"] = us("wavelet.chunk_encode")
	L["wavelet.chunk_decode_us"] = us("wavelet.chunk_decode")
	L["wavelet.canvas_apply_us"] = us("wavelet.canvas_apply")

	// Codec throughput over all replayed bytes: raw bytes in (encode) or
	// out (decode) per second spent inside the call.
	mbps := func(span string) float64 {
		var ns float64
		for _, d := range rec.durations(span) {
			ns += d
		}
		if ns == 0 {
			return 0
		}
		return float64(sh.rawBytes) / 1e6 / (ns / 1e9)
	}
	L["compress."+codec+".encode_mb_s"] = mbps("compress." + codec + ".encode")
	L["compress."+codec+".decode_mb_s"] = mbps("compress." + codec + ".decode")
	if sh.encBytes > 0 {
		L["compress."+codec+".ratio"] = float64(sh.rawBytes) / float64(sh.encBytes)
	}

	rounds := rec.durations("round")
	if sh.hops > 0 {
		L["wire.frames_per_round"] = float64(sh.frames) / float64(sh.hops)
		L["wavelet.chunk_bytes"] = float64(sh.rawBytes) / float64(sh.hops)
	}
	L["wire.read_frame_ns"] = rec.medianNS("wire.read")
	if sh.frames > 0 {
		var ns float64
		for _, d := range rec.durations("wire.write") {
			ns += d
		}
		L["wire.write_frame_ns"] = ns / float64(sh.frames)
	}
	L["wire.negotiate_us"] = sh.negotiateNS / 1e3
	L["avis.segment_codec_ns"] = rec.medianNS("avis.segment_decode")
	L["avis.round_p99_ms"] = quantile(sortedCopy(rounds), 0.99) / 1e6
	L["avis.round_self_us"] = median(rec.selfTimes("round", shadowSelfTime)) / 1e3
	return L
}

// sessionProbes measures the session-layer calls that happen too rarely or
// too briefly inside a round to time there: connect, request codec, round
// planning, pyramid decompose, and the wire and bufpool per-call costs.
func sessionProbes(L map[string]float64, org *origin, sh *shadow, p avis.Params) error {
	var connects []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		c, err := dialAvis(org.addr(), p)
		if err != nil {
			return err
		}
		connects = append(connects, float64(time.Since(t0))/1e3)
		_ = c.Close()
	}
	L["avis.connect_us"] = median(connects)

	geom := avis.Geometry{Side: imgSide, Levels: imgLevels, NumImages: numImages}
	reqs := avis.PlanRounds(geom, p, 0, 0)
	req := reqs[len(reqs)/2]
	L["avis.request_codec_ns"] = nsPer(20000, func() {
		if _, err := avis.DecodeRequest(avis.EncodeRequest(req)); err != nil {
			panic(err) // a request this package built must decode
		}
	})
	L["avis.plan_rounds_ns"] = nsPer(2000, func() { _ = avis.PlanRounds(geom, p, 0, 0) })
	L["bufpool.get_put_ns"] = nsPer(100000, func() { bufpool.Put(bufpool.Get(8 << 10)) })

	var dec []float64
	for i := 0; i < 3; i++ {
		im := imagery.Generate(imgSide, imgSeeds[i])
		t0 := time.Now()
		if _, err := wavelet.Decompose(im, imgLevels); err != nil {
			return err
		}
		dec = append(dec, ms(time.Since(t0)))
	}
	L["wavelet.decompose_ms"] = median(dec)

	allocs, err := sh.frameAllocs()
	if err != nil {
		return err
	}
	L["wire.allocs_per_frame"] = allocs
	return nil
}

// frameAllocs counts heap allocations per frame written and read back on
// the loopback pair.
func (s *shadow) frameAllocs() (float64, error) {
	msg := avis.EncodeRequest(avis.Request{Image: 1, X: 512, Y: 512, R: 64, Level: 4})
	var err error
	roundTrip := func() {
		if werr := s.tx.WriteMsg(msg); werr != nil {
			err = werr
			return
		}
		m, rerr := s.rx.ReadMsg()
		if rerr != nil {
			err = rerr
			return
		}
		bufpool.Put(m)
	}
	roundTrip() // fills the pools
	// a round trip is two frames
	return allocsPer(2000, roundTrip) / 2, err
}
