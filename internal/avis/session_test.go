package avis

import (
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
		sim, simErr = driveScripted(&w.Client.session, func() int64 { return w.Server.Stats().RawBytes })
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
				body(&vtimeEnv{p: p, ep: ep, sb: sb, out: ep})
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
				msg, err := e.recv(0)
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
			data, _, err := s.fetchRoundRaw(req)
			if err != nil || string(data) != "new" {
				t.Errorf("round returned %q, err %v; want the current attempt's payload", data, err)
			}
			bufpool.Put(data)
		}},
		{"wrong Image segment is an error", script(func(r Request) []Segment {
			return []Segment{{Image: r.Image + 1, Seq: r.Seq, Raw: 3, Last: true, Payload: []byte("???")}}
		}), func(t *testing.T, s *session) {
			if _, _, err := s.fetchRoundRaw(req); err == nil {
				t.Error("a segment for another image was accepted")
			}
		}},
		{"unknown tag gets an error reply and the session continues", origin, func(t *testing.T, s *session) {
			_ = s.env.send([]byte{'?', 1, 2, 3})
			msg, err := s.env.recv(0)
			if err != nil || msg[0] != tagError {
				t.Errorf("garbage answered with %q, err %v; want an error frame", msg, err)
				return
			}
			s.env.release(msg)
			var refused *RefusedError
			if _, _, err := s.fetchRoundRaw(Request{Image: 9, R: 32, Level: 4}); !errors.As(err, &refused) {
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
