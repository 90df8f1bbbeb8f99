package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"time"

	"tunable/internal/avis"
	"tunable/internal/bufpool"
	"tunable/internal/edge"
	"tunable/internal/lru"
)

// Shape of the edge-revisit trace: fixation centres on a 32×32 grid over
// each of the 4 images, popularity Zipf(1.1), 4 coarse rounds per fixation
// and one finest-level round on every 4th. Each coarse round is its own
// cache key, so the working set is several times the 2048-entry cache and
// eviction runs. The grid keeps fixMargin away from the image border so no
// region is clipped: Zipf puts half the visits on a dozen keys, and if the
// seed decided whether those sit on the border (small chunks) or not, it
// would decide the median round.
const (
	fixGrid       = 32
	fixMargin     = 128 // the largest coarse radius
	fixKeys       = numImages * fixGrid * fixGrid
	coarsePerFix  = 4
	fineEvery     = 4
	edgeCacheSize = 2048
	edgeSig       = "bench-store"
	zipfS         = 1.1
)

var edgeParams = avis.Params{DR: 32, Codec: "lzw", Level: 3}

// fixation is one generated stop of the fovea.
type fixation struct {
	key  int // index into the 4096 (image, cell) keys
	img  int
	x, y int
	fine bool // also fetches one finest-level round
}

// fixationTrace generates one client's seeded fixation sequence. perm maps
// popularity rank to key so the hot fixations are scattered over images
// and positions rather than being key 0, 1, 2….
type fixationTrace struct {
	zipf *rand.Zipf
	perm []int
	n    int
}

func newFixationTrace(seed int64, client int) *fixationTrace {
	// The permutation depends on the seed only: viewers share hot regions.
	perm := rand.New(rand.NewSource(seed)).Perm(fixKeys)
	r := rand.New(rand.NewSource(seed*1000003 + 7 + int64(client)))
	return &fixationTrace{zipf: rand.NewZipf(r, zipfS, 1, fixKeys-1), perm: perm}
}

func (t *fixationTrace) next() fixation {
	key := t.perm[t.zipf.Uint64()]
	cell := key % (fixGrid * fixGrid)
	step := (imgSide - 2*fixMargin) / fixGrid
	f := fixation{
		key: key, img: key / (fixGrid * fixGrid),
		x: fixMargin + (cell%fixGrid)*step + step/2, y: fixMargin + (cell/fixGrid)*step + step/2,
		fine: t.n%fineEvery == fineEvery-1,
	}
	t.n++
	return f
}

// fixationRounds lists the requests of one fixation: the first four rounds
// of a level-3 progressive fetch recentred on the fixation, then, for a
// fine fixation, one level-4 round, which the edge passes through.
func fixationRounds(coarse []avis.Request, f fixation, dst []avis.Request) []avis.Request {
	dst = dst[:0]
	for _, r := range coarse {
		r.Image, r.X, r.Y = f.img, f.x, f.y
		dst = append(dst, r)
	}
	if f.fine {
		dst = append(dst, avis.Request{Image: f.img, X: f.x, Y: f.y, R: 32, PrevR: 0, Level: imgLevels})
	}
	return dst
}

// edgeFixture is origin + proxy + their listeners.
type edgeFixture struct {
	org   *origin
	proxy *edge.Proxy
	ln    net.Listener
	done  chan struct{}
}

func startEdge() (*edgeFixture, error) {
	org, err := startOrigin()
	if err != nil {
		return nil, err
	}
	p, err := edge.New(edge.Config{
		OriginAddr: org.addr(), Sig: edgeSig, CacheEntries: edgeCacheSize, IOTimeout: 30 * time.Second,
	})
	if err == nil {
		err = p.Start()
	}
	if err != nil {
		org.stop()
		return nil, fmt.Errorf("edge proxy: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Shutdown(time.Second)
		org.stop()
		return nil, fmt.Errorf("edge listener: %w", err)
	}
	f := &edgeFixture{org: org, proxy: p, ln: ln, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		_ = p.Serve(ln) // returns net.ErrClosed on Shutdown
	}()
	return f, nil
}

func (f *edgeFixture) stop() {
	f.proxy.Shutdown(2 * time.Second)
	<-f.done
	f.org.stop()
}

// edgeViewer is one closed-loop client of the proxy.
type edgeViewer struct {
	tally
	c     *avis.RealClient
	trace *fixationTrace
	reqs  []avis.Request
	// sizes[key*5+round] is the payload size first seen for that request;
	// every later fetch of it, hit or miss, must deliver the same count.
	sizes []int32
}

// fetchFixations is the measured loop of one client.
func (v *edgeViewer) fetchFixations(n int, coarse []avis.Request) {
	for k := 0; k < n; k++ {
		f := v.trace.next()
		v.reqs = fixationRounds(coarse, f, v.reqs)
		t0 := time.Now()
		ok := true
		var coarseDone time.Duration
		for i, req := range v.reqs {
			r0 := time.Now()
			data, _, err := v.c.FetchRoundRaw(req)
			d := time.Since(r0)
			v.attempted++
			if err != nil {
				v.failed++
				return // connection state unknown; this client stops
			}
			slot := &v.sizes[f.key*(coarsePerFix+1)+i]
			if *slot == 0 {
				*slot = int32(len(data))
			}
			if len(data) == 0 || int32(len(data)) != *slot {
				v.failed++
				ok = false
			} else {
				v.ops = append(v.ops, ms(d))
			}
			bufpool.Put(data)
			if i == coarsePerFix-1 {
				coarseDone = time.Since(t0)
			}
		}
		// The unit is the fixation's coarse view. The fine round of every
		// 4th fixation is an op but not part of the unit: counted in, it
		// makes two populations of fixations with the median on the edge
		// of the smaller-time one.
		if ok {
			v.units = append(v.units, ms(coarseDone))
		}
	}
}

func runEdgeRevisit(rc *runCtx) (*result, error) {
	res := &result{}
	clients := nClients
	if rc.trace {
		clients = 1
	}
	var (
		fx      *edgeFixture
		viewers []*edgeViewer
	)
	teardown, err := res.timeSetup(rc, func() (func(), error) {
		f, err := startEdge()
		if err != nil {
			return nil, err
		}
		vs := make([]*edgeViewer, clients)
		for i := range vs {
			c, err := dialAvis(f.ln.Addr().String(), edgeParams)
			if err != nil {
				for _, v := range vs[:i] {
					_ = v.c.Close()
				}
				f.stop()
				return nil, err
			}
			vs[i] = &edgeViewer{c: c, trace: newFixationTrace(rc.seed, i)}
		}
		fx, viewers = f, vs
		return func() {
			for _, v := range vs {
				_ = v.c.Close()
			}
			f.stop()
		}, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	geom := viewers[0].c.Geometry()
	coarse := avis.PlanRounds(geom, edgeParams, 0, 0)[:coarsePerFix]
	for _, v := range viewers {
		v.sizes = make([]int32, fixKeys*(coarsePerFix+1))
		v.ops = make([]float64, 0, 1<<19)
		v.units = make([]float64, 0, 1<<17)
	}

	// Warm-up, off the clock: the start of each client's trace, with 1 in 64
	// payloads through the edge compared byte for byte with the origin's
	// answer to the same request.
	direct, err := dialAvis(fx.org.addr(), edgeParams)
	if err != nil {
		return nil, err
	}
	defer direct.Close()
	checked := 0
	for _, v := range viewers {
		var reqs []avis.Request
		for k, n := 0, rc.scale(1500, 20); k < n; k++ {
			reqs = fixationRounds(coarse, v.trace.next(), reqs)
			for _, req := range reqs {
				res.attempted++
				data, _, err := v.c.FetchRoundRaw(req)
				if err != nil {
					res.failed++
					return res, fmt.Errorf("warm-up round through the edge: %w", err)
				}
				if res.attempted%64 == 1 {
					want, _, err := direct.FetchRoundRaw(req)
					if err != nil {
						return nil, fmt.Errorf("warm-up round at the origin: %w", err)
					}
					if !bytes.Equal(data, want) {
						res.failed++
						res.problemf("request %+v: payload through the edge differs from the origin's", req)
					}
					bufpool.Put(want)
					checked++
				}
				bufpool.Put(data)
			}
		}
	}
	rc.logf("edge-revisit: %d payloads checked against the origin", checked)

	perPass := rc.scale(1500, 20)
	tallies := make([]*tally, len(viewers))
	for i, v := range viewers {
		tallies[i] = &v.tally
	}
	pass := func() int {
		return res.passOf(tallies, func(i int) { viewers[i].fetchFixations(perPass, coarse) })
	}
	if !rc.trace {
		res.measure(rc, 3, pass)
		st := fx.proxy.Stats()
		rc.logf("edge-revisit: hit ratio %.3f, %d evictions", st.HitRatio(), st.Evictions)
		return res, nil
	}

	// Traced run: untraced reference passes, then as many fixations again
	// with a span per round, classed by what the cache counters did.
	v := viewers[0]
	res.measure(rc.quarter(), 1, pass)
	untraced := median(res.ops)
	fixations := len(res.units)

	rec := newRecorder()
	st0, org0 := fx.proxy.Stats(), fx.org.srv.Stats()
	var done []tracedRound
	var raw int64
	t0 := time.Now()
	for k := 0; k < fixations; k++ {
		v.reqs = fixationRounds(coarse, v.trace.next(), v.reqs)
		for _, req := range v.reqs {
			res.attempted++
			before := fx.proxy.Stats()
			id := rec.begin("round", -1, len(done))
			data, _, err := v.c.FetchRoundRaw(req)
			rec.end(id)
			if err != nil {
				res.failed++
				return res, fmt.Errorf("traced round: %w", err)
			}
			after := fx.proxy.Stats()
			class := "pass"
			switch {
			case after.Hits > before.Hits:
				class = "hit"
			case after.Misses > before.Misses:
				class = "miss"
			}
			rec.spans[id].Name = "round." + class
			done = append(done, tracedRound{req: req, span: id, sum: crc32.ChecksumIEEE(data), n: len(data), hit: class == "hit"})
			raw += int64(len(data))
			bufpool.Put(data)
		}
	}
	wall := time.Since(t0).Seconds()
	st1, org1 := fx.proxy.Stats(), fx.org.srv.Stats()

	rounds := len(done)

	sh, err := newShadow(fx.org.store, edgeParams.Codec)
	if err != nil {
		return nil, err
	}
	defer sh.close()
	for op, tr := range done {
		got, err := sh.edgeRound(rec, tr.span, op, tr.req, tr.hit)
		if err != nil {
			return nil, fmt.Errorf("shadow replay: %w", err)
		}
		if !tr.same(got) {
			res.failed++
			res.problemf("request %+v: shadow payload differs from the real round's", tr.req)
		}
		bufpool.Put(got)
	}

	// "round" takes in its three classes: round.hit, round.miss, round.pass.
	L := sessionLayers(rec, sh, edgeParams.Codec)
	L["edge.hit_round_us"] = rec.medianNS("round.hit") / 1e3
	L["edge.miss_round_us"] = rec.medianNS("round.miss") / 1e3
	L["edge.pass_round_us"] = rec.medianNS("round.pass") / 1e3
	if lookups := float64(st1.Hits - st0.Hits + st1.Misses - st0.Misses); lookups > 0 {
		L["edge.hit_ratio"] = float64(st1.Hits-st0.Hits) / lookups
	}
	L["edge.evictions"] = float64(st1.Evictions - st0.Evictions)
	L["edge.cache_bytes"] = float64(st1.Bytes)
	L["edge.origin_share"] = float64(org1.Requests-org0.Requests) / float64(rounds)
	L["avis.raw_mb_s"] = float64(raw) / 1e6 / wall
	L["trace.overhead_ratio"] = rec.medianNS("round") / 1e6 / untraced
	res.runtimeLayers(L)
	if err := sessionProbes(L, fx.org, sh, edgeParams); err != nil {
		return nil, err
	}
	lruProbes(L)
	res.layers, res.rec = L, rec
	return res, nil
}

// edgeRound shadows one round through the proxy. A hit is one hop — the
// edge re-encodes the cached payload for the client; a miss or a
// pass-through is the origin's extract, the origin leg, then the client
// leg. On a hit the cached payload is rebuilt off the record: the extract
// is not part of what a hit costs.
func (s *shadow) edgeRound(rec *recorder, parent, op int, req avis.Request, hit bool) ([]byte, error) {
	if hit {
		raw, err := s.extract(nil, -1, op, req)
		if err != nil {
			return nil, err
		}
		data, err := s.hop(rec, parent, op, req, raw)
		bufpool.Put(raw)
		return data, err
	}
	raw, err := s.extract(rec, parent, op, req)
	if err != nil {
		return nil, err
	}
	atEdge, err := s.hop(rec, parent, op, req, raw)
	bufpool.Put(raw)
	if err != nil {
		return nil, err
	}
	data, err := s.hop(rec, parent, op, req, atEdge)
	bufpool.Put(atEdge)
	return data, err
}

// lruProbes times the replacement policy the edge cache and the image
// store share, at the edge cache's size and key shape.
func lruProbes(L map[string]float64) {
	pol := lru.New[string, []byte](lru.Config{MaxEntries: edgeCacheSize}, nil)
	keys := make([]string, 2*edgeCacheSize)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s/%d/3/%d/%d/64/32", edgeSig, i%numImages, i, i)
	}
	val := make([]byte, 1024)
	for _, k := range keys[:edgeCacheSize] {
		pol.Put(k, val, int64(len(val)))
	}
	i := 0
	L["lru.get_ns"] = nsPer(100000, func() {
		pol.Get(keys[i%edgeCacheSize])
		i++
	})
	// Puts alternate over twice the capacity, so each one evicts.
	L["lru.put_ns"] = nsPer(100000, func() {
		pol.Put(keys[i%len(keys)], val, int64(len(val)))
		i++
	})
}
