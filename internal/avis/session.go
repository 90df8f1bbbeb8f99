package avis

import (
	"errors"
	"fmt"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/compress"
	"tunable/internal/metrics"
	"tunable/internal/spec"
	"tunable/internal/wavelet"
)

// ImageStat records one complete image download.
type ImageStat struct {
	Image        int
	Level        int
	Codec        string
	DR           int
	Start        time.Duration
	TransmitTime time.Duration // total image transmission time
	AvgResponse  time.Duration // mean round response time
	Rounds       int
	RawBytes     int64
	WireBytes    int64
	PSNR         float64 // only when verification is enabled; else 0
}

// Metrics renders the stat as the application's QoS metrics (seconds).
func (s ImageStat) Metrics() spec.Metrics {
	return spec.Metrics{
		"transmit_time": s.TransmitTime.Seconds(),
		"response_time": s.AvgResponse.Seconds(),
		"resolution":    float64(s.Level),
	}
}

// RefusedError is a server's answer to a request it will not serve (an
// error frame). The round ended cleanly — the connection is still in step
// and a replay elsewhere would be refused identically.
type RefusedError struct{ Msg string }

func (e *RefusedError) Error() string { return "avis: server error: " + e.Msg }

// roundPlan walks the request sequence of one progressive image fetch:
// Figure 2's loop arithmetic, in one place. r is the level-resolution
// radius already delivered around the fovea (x, y).
type roundPlan struct {
	img, level  int
	size, scale int // image.size(level), and level units → full-resolution units
	x, y, r     int
}

func newRoundPlan(g Geometry, level, img, fromR int) roundPlan {
	size := (g.Side >> g.Levels) << level
	return roundPlan{
		img: img, level: level, size: size, scale: g.Side / size,
		x: g.Side / 2, y: g.Side / 2, r: fromR,
	}
}

// next grows the fovea by dr and returns the request for the increment,
// skipping steps whose full-resolution increment is empty (dr smaller
// than one full-resolution pixel at this level). ok is false once the
// image is complete.
func (pl *roundPlan) next(dr int) (req Request, ok bool) {
	for pl.r < pl.size {
		prevR := pl.r
		pl.r = min(pl.r+dr, pl.size)
		// Radii in full-resolution half-side units for extraction.
		fullR, fullPrev := pl.r*pl.scale/2, prevR*pl.scale/2
		if fullR > fullPrev {
			return Request{Image: pl.img, X: pl.x, Y: pl.y, R: fullR, PrevR: fullPrev, Level: pl.level}, true
		}
	}
	return Request{}, false
}

// moveTo re-centres the fovea, restarting the incremental transmission.
func (pl *roundPlan) moveTo(x, y int) { pl.x, pl.y, pl.r = x, y, 0 }

// PlanRounds enumerates the request sequence of one progressive image
// fetch under geometry g and params p — Figure 2's loop body, precomputed.
// fromR resumes a partially delivered image: it is the level-resolution
// radius already on the client's canvas (0 starts fresh).
func PlanRounds(g Geometry, p Params, img, fromR int) []Request {
	if g.Side == 0 {
		return nil
	}
	var reqs []Request
	pl := newRoundPlan(g, p.Level, img, fromR)
	for req, ok := pl.next(p.DR); ok; req, ok = pl.next(p.DR) {
		reqs = append(reqs, req)
	}
	return reqs
}

// codecInstruments carries the per-codec data-plane telemetry of one
// direction (encode on the server, decode on the client). All methods are
// nil-safe so uninstrumented deployments pay only a map lookup.
type codecInstruments struct {
	seconds  *metrics.Histogram
	inBytes  *metrics.Counter
	outBytes *metrics.Counter
}

func (ci *codecInstruments) observe(sec float64, in, out int) {
	if ci == nil {
		return
	}
	ci.seconds.Observe(sec)
	ci.inBytes.Add(float64(in))
	ci.outBytes.Add(float64(out))
}

// newCodecInstruments registers one instrument set per registered codec,
// labeled codec="<name>", under the given metric-family prefix
// (avis_codec_encode or avis_codec_decode).
func newCodecInstruments(reg *metrics.Registry, dir string) map[string]*codecInstruments {
	m := make(map[string]*codecInstruments, 4)
	for _, name := range compress.Names() {
		l := metrics.L("codec", name)
		m[name] = &codecInstruments{
			seconds: reg.Histogram("avis_codec_"+dir+"_seconds",
				"Wall-clock time of one codec "+dir+" call.", l),
			inBytes: reg.Counter("avis_codec_"+dir+"_in_bytes_total",
				"Bytes fed into the codec "+dir+" path.", l),
			outBytes: reg.Counter("avis_codec_"+dir+"_out_bytes_total",
				"Bytes produced by the codec "+dir+" path.", l),
		}
	}
	return m
}

// session is the client half of the application, annotated per Figure 2:
// it requests growing foveal regions, decompresses and displays them, and
// reports the three QoS metrics — over whichever env it was built on.
// Client and RealClient embed it; their exported entry points bind the
// transport and call in.
type session struct {
	env    env
	cost   CostModel // zero on TCP, where env.compute is a no-op anyway
	params Params
	geom   Geometry
	codec  compress.Codec
	seq    int // attempt counter: every request sent gets a fresh Seq

	retryTimeout time.Duration // 0 disables loss recovery
	maxRetries   int
	retries      int64

	// poll asks the steering agent for a pending reconfiguration at a
	// transition point; nil when no agent is attached.
	poll func() (spec.Config, bool)
	// interaction simulates check_for_user_interaction: invoked each
	// round, it may move the fovea (returning a new centre restarts the
	// incremental transmission) — nil keeps the fovea fixed.
	interaction func(img, round int) (moveX, moveY int, moved bool)
	// store and seeds, when set, turn on verification: every image is
	// reconstructed and its PSNR against the source recorded.
	store *ImageStore
	seeds []int64
	memo  *decodeMemo // answers the length of a reply nobody reads; nil on TCP

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mFetchSeconds *metrics.Histogram
	mRoundSeconds *metrics.Histogram
	mRawBytes     *metrics.Counter
	mWireBytes    *metrics.Counter
	mRounds       *metrics.Counter
	mRetransmits  *metrics.Counter
	mImages       *metrics.Counter
	mCodec        map[string]*codecInstruments

	stats []ImageStat
}

// EnableMetrics instruments the client. Metric families:
// avis_fetch_seconds (per-image download latency histogram),
// avis_round_seconds (per-round response time), avis_raw_bytes_total,
// avis_wire_bytes_total, avis_rounds_total, avis_retransmits_total,
// avis_images_total, and — labeled per codec — avis_codec_decode_seconds,
// avis_codec_decode_in_bytes_total and avis_codec_decode_out_bytes_total.
// Durations are virtual-time in simulated mode.
func (s *session) EnableMetrics(reg *metrics.Registry) {
	s.mFetchSeconds = reg.Histogram("avis_fetch_seconds", "Per-image download latency.")
	s.mRoundSeconds = reg.Histogram("avis_round_seconds", "Per-round response time.")
	s.mRawBytes = reg.Counter("avis_raw_bytes_total", "Uncompressed payload bytes received.")
	s.mWireBytes = reg.Counter("avis_wire_bytes_total", "Compressed bytes on the wire.")
	s.mRounds = reg.Counter("avis_rounds_total", "Request/reply rounds completed.")
	s.mRetransmits = reg.Counter("avis_retransmits_total", "Round retransmissions after stalls.")
	s.mImages = reg.Counter("avis_images_total", "Images fully downloaded.")
	s.mCodec = newCodecInstruments(reg, "decode")
}

// Params returns the currently active parameters.
func (s *session) Params() Params { return s.params }

// Geometry returns the server-announced image geometry.
func (s *session) Geometry() Geometry { return s.geom }

// Stats returns per-image statistics collected so far.
func (s *session) Stats() []ImageStat { return s.stats }

// Retries returns the number of round retransmissions performed.
func (s *session) Retries() int64 { return s.retries }

// connect performs the geometry handshake and announces the initial
// compression type.
func (s *session) connect() error {
	if err := s.env.send(encodeHello()); err != nil {
		return err
	}
	msg, _, err := s.env.recv(0)
	if err != nil {
		return err
	}
	geom, err := decodeGeom(msg)
	s.env.release(msg)
	if err != nil {
		return err
	}
	s.geom = geom
	return s.setCodec(s.params.Codec)
}

// setCodec switches the compression method and tells the server — the
// notify_server transition action of Figure 2.
func (s *session) setCodec(name string) error {
	codec, err := compress.Lookup(name)
	if err != nil {
		return err
	}
	if err := s.env.send(encodeNotify(name)); err != nil {
		return err
	}
	s.codec = codec
	s.params.Codec = name
	return nil
}

// setParams applies a reconfiguration between images.
func (s *session) setParams(p Params) error {
	if p.Codec != s.params.Codec {
		if err := s.setCodec(p.Codec); err != nil {
			return err
		}
	}
	s.params.DR = p.DR
	s.params.Level = p.Level
	return nil
}

// steer polls the steering agent at a transition point. dR and codec
// changes take effect on the next round; the level is latched per image
// by fetchImage (the resolution of an in-flight image is fixed).
func (s *session) steer() {
	if s.poll == nil {
		return
	}
	cfg, switched := s.poll()
	if !switched {
		return
	}
	np, err := ParamsFromConfig(cfg)
	if err != nil {
		return
	}
	// The notify_server action already ran inside the poll; mirror the
	// parameter values locally.
	s.params = np
	if codec, err := compress.Lookup(np.Codec); err == nil {
		s.codec = codec
	}
}

// gather drains the reply to attempt seq of a request for image img until
// its final segment, charging decode and display cost per segment (so
// client computation overlaps the arrival of later segments), and returns
// the compressed bytes. Segments echoing another sequence number are
// leftovers of an aborted attempt and are dropped. borrowed reports that
// the bytes are the server's immutable shared reply itself, which never
// goes to bufpool; otherwise they are a pooled copy. A window that does
// not start where the bytes gathered so far end means a segment of the
// reply was lost: the round is stalled.
func (s *session) gather(img, seq int) (reply []byte, borrowed bool, err error) {
	decCost := s.cost.DecodeCyclesPerByte * s.codec.DecodeCost()
	for {
		msg, w, err := s.env.recv(s.retryTimeout)
		var seg Segment
		switch {
		case err != nil:
		case msg[0] == tagError:
			err = &RefusedError{Msg: string(msg[1:])}
		default:
			if seg, err = DecodeSegment(msg); err != nil || seg.Seq != seq {
				break
			}
			if seg.Image != img {
				err = fmt.Errorf("avis: segment for image %d during image %d", seg.Image, img)
			} else if w.b != nil && w.at != len(reply) {
				err = errRoundStalled
			}
		}
		if err != nil {
			s.env.release(msg)
			if !borrowed {
				bufpool.Put(reply)
			}
			return nil, false, err
		}
		last := false
		if seg.Seq == seq {
			// decompress(c, &data); update_display(...) — cost charged per
			// segment.
			s.env.compute(decCost*float64(seg.Raw) + s.cost.DisplayCyclesPerPixel*float64(seg.Raw))
			reply, borrowed = appendSegment(reply, borrowed, seg.Payload, w.b)
			last = seg.Last
		}
		s.env.release(msg)
		if last {
			return reply, borrowed, nil
		}
	}
}

// appendSegment adds one segment's bytes — p, then the window w — to
// reply. It borrows w where w starts the reply, and where w is adjacent in
// memory to a borrowed reply extends it in place; anything else — TCP, a
// pooled reply, a window that is not adjacent — is copied into a pooled
// buffer twice the size of the bytes gathered so far.
func appendSegment(reply []byte, borrowed bool, p, w []byte) ([]byte, bool) {
	n := len(reply)
	switch {
	case len(p)+len(w) == 0:
		return reply, borrowed
	case len(p) == 0 && reply == nil:
		return w, true
	case len(p) == 0 && borrowed && cap(reply)-n >= len(w) && &reply[:n+1][n] == &w[0]:
		return reply[:n+len(w)], true
	}
	if need := n + len(p) + len(w); borrowed || need > cap(reply) {
		grown := append(bufpool.Get(2 * need)[:0], reply...)
		if !borrowed {
			bufpool.Put(reply)
		}
		reply = grown
	}
	return append(append(reply, p...), w...), false
}

// exchange is one request/reply round: it sends req under a fresh
// sequence number, gathers the reply, retransmits when the reply stalls
// (up to maxRetries times), and returns the decoded — pre-compression —
// chunk payload in a pooled buffer with its length and the round's
// on-the-wire size. A payload larger than any chunk req can select
// (wavelet.ChunkBound) is an error. keep says the caller reads the
// payload; without it, a session with a memo takes rawN from the memo
// when it holds the reply and returns nil data, which the caller may
// still hand to bufpool.Put at no cost.
func (s *session) exchange(req Request, keep bool) (data []byte, rawN, wireN int, err error) {
	var compressed []byte
	var borrowed bool
	for attempt := 0; ; attempt++ {
		s.seq++
		req.Seq = s.seq
		if err = s.env.send(EncodeRequest(req)); err == nil {
			compressed, borrowed, err = s.gather(req.Image, req.Seq)
		}
		if err == nil {
			break
		}
		if !errors.Is(err, errRoundStalled) || attempt >= s.maxRetries {
			return nil, 0, 0, err
		}
		s.retries++
		s.mRetransmits.Inc()
	}
	// Real decompression (its simulated cost was charged per segment),
	// unless nobody reads the payload and the memo holds these bytes.
	clientReplies.Add(1)
	wireN = len(compressed)
	if keep || s.memo == nil {
		data, err = s.decode(compressed)
		rawN = len(data)
	} else {
		rawN, err = s.memo.rawLen(s.codec.Name(), compressed, borrowed, s.decode)
	}
	if !borrowed {
		bufpool.Put(compressed)
	}
	if bound := wavelet.ChunkBound(s.geom.Side, s.geom.Levels, req.Level, req.R); err == nil && rawN > bound {
		bufpool.Put(data)
		err = fmt.Errorf("avis: %d-byte chunk exceeds the %d bytes the request allows", rawN, bound)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	return data, rawN, wireN, nil
}

// decode decompresses one reply with the session's codec into a pooled
// buffer, counted and observed by the decode instruments.
func (s *session) decode(compressed []byte) ([]byte, error) {
	clientDecodes.Add(1)
	t0 := s.env.now()
	data, err := s.codec.Decode(compressed)
	if err != nil {
		return nil, fmt.Errorf("avis: decode: %w", err)
	}
	s.mCodec[s.codec.Name()].observe((s.env.now() - t0).Seconds(), len(compressed), len(data))
	return data, nil
}

// fetchRoundRaw is one trip of Figure 2's loop body between its
// QoS_monitor marks, short of rendering: the exchange, the per-round
// client overhead, and the round instruments. keep is exchange's.
func (s *session) fetchRoundRaw(req Request, keep bool) (data []byte, rawN, wireN int, err error) {
	if s.geom.Side == 0 {
		return nil, 0, 0, fmt.Errorf("avis: not connected")
	}
	t0 := s.env.now()
	if data, rawN, wireN, err = s.exchange(req, keep); err != nil {
		return nil, 0, 0, err
	}
	s.env.compute(s.cost.RoundOverheadCycles) // check_for_user_interaction
	s.mRoundSeconds.Observe((s.env.now() - t0).Seconds())
	s.mRounds.Inc()
	s.mRawBytes.Add(float64(rawN))
	s.mWireBytes.Add(float64(wireN))
	return data, rawN, wireN, nil
}

// fetchRound is fetchRoundRaw plus rendering: when canvas is non-nil the
// chunk is applied to it. A failed round applies nothing (segments are
// buffered and decoded only once complete), so the same request can be
// replayed verbatim — against the same server after a stall, or a
// replacement after a failover.
func (s *session) fetchRound(req Request, canvas *wavelet.Canvas) (rawN, wireN int, err error) {
	data, rawN, wireN, err := s.fetchRoundRaw(req, canvas != nil)
	if err != nil {
		return 0, 0, err
	}
	if canvas != nil {
		var chunk *wavelet.Chunk
		if chunk, err = wavelet.DecodeChunk(data); err == nil {
			err = canvas.Apply(chunk)
			chunk.Release()
		}
	}
	bufpool.Put(data)
	if err != nil {
		return 0, 0, err
	}
	return rawN, wireN, nil
}

// fetchImage downloads one image: the annotated while-loop of Figure 2.
// before, when non-nil, runs ahead of every round attempt. repair, when
// non-nil, is offered every failed round: returning nil means the session
// is usable again (say, moved to a replacement server) and the round is
// replayed; returning an error ends the fetch with it.
func (s *session) fetchImage(img int, canvas *wavelet.Canvas, before func(img, round int), repair func(error) error) (ImageStat, error) {
	if s.geom.Side == 0 {
		return ImageStat{}, fmt.Errorf("avis: not connected")
	}
	if img < 0 || img >= s.geom.NumImages {
		return ImageStat{}, fmt.Errorf("avis: image %d out of range", img)
	}
	s.steer() // a pre-image switch takes effect now, level included
	if canvas == nil && s.store != nil {
		var err error
		if canvas, err = wavelet.NewCanvas(s.geom.Side, s.geom.Levels); err != nil {
			return ImageStat{}, err
		}
	}
	stat := ImageStat{
		Image: img,
		Level: s.params.Level,
		Codec: s.params.Codec,
		DR:    s.params.DR,
		Start: s.env.now(),
	}
	plan := newRoundPlan(s.geom, stat.Level, img, 0)
	var respSum time.Duration
	for req, more := plan.next(s.params.DR); more; req, more = plan.next(s.params.DR) {
		var t0 time.Duration
		var rawN, wireN int
		for {
			if before != nil {
				before(img, stat.Rounds)
			}
			t0 = s.env.now() // QoS_monitor { t0 = clock(); }
			var err error
			if rawN, wireN, err = s.fetchRound(req, canvas); err == nil {
				break
			}
			if repair != nil {
				err = repair(err)
			}
			if err != nil {
				return stat, err
			}
		}
		respSum += s.env.now() - t0 // QoS_monitor { t1 = clock(); ... }
		stat.RawBytes += int64(rawN)
		stat.WireBytes += int64(wireN)
		if s.interaction != nil {
			if nx, ny, moved := s.interaction(img, stat.Rounds); moved {
				plan.moveTo(nx, ny)
			}
		}
		stat.Rounds++
		// transition (new_control) { ... } — the annotated transition
		// point at the bottom of the loop body.
		s.steer()
	}
	stat.TransmitTime = s.env.now() - stat.Start
	if stat.Rounds > 0 {
		stat.AvgResponse = respSum / time.Duration(stat.Rounds)
	}
	if s.store != nil {
		recon, err := canvas.Reconstruct(stat.Level)
		if err != nil {
			return stat, err
		}
		ref := s.store.Image(s.geom.Side, s.seeds[img]).Downsample(s.geom.Levels - stat.Level)
		if stat.PSNR, err = refPSNR(ref, recon); err != nil {
			return stat, err
		}
	}
	s.mFetchSeconds.Observe(stat.TransmitTime.Seconds())
	s.mImages.Inc()
	s.stats = append(s.stats, stat)
	return stat, nil
}

// close ends the session.
func (s *session) close() { _ = s.env.send(encodeClose()) }
