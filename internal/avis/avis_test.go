package avis

import (
	"fmt"
	"math"
	"testing"
	"time"

	"tunable/internal/prng"
	"tunable/internal/spec"
	"tunable/internal/steering"
	"tunable/internal/vtime"
)

// testStore is shared across the package tests so pyramids build once.
var testStore = NewImageStore()

func testWorld(t *testing.T, cfg WorldConfig, opts ...ClientOption) *World {
	t.Helper()
	cfg.Store = testStore
	if cfg.Side == 0 {
		cfg.Side = 256 // small images keep unit tests fast
	}
	w, err := NewWorld(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFetchSingleImage(t *testing.T) {
	w := testWorld(t, WorldConfig{Params: Params{DR: 64, Codec: "lzw", Level: 4}})
	stats, err := w.RunSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("%d stats", len(stats))
	}
	s := stats[0]
	if s.TransmitTime <= 0 || s.AvgResponse <= 0 {
		t.Fatalf("degenerate stat %+v", s)
	}
	if s.Rounds != 4 { // size(4)=256, dR=64
		t.Fatalf("rounds %d, want 4", s.Rounds)
	}
	// Coefficients plus 4 chunk headers (18 B) with 13 band headers (8 B)
	// each.
	if s.RawBytes != 256*256+4*(18+13*8) {
		t.Fatalf("raw bytes %d", s.RawBytes)
	}
	if s.Level != 4 || s.Codec != "lzw" {
		t.Fatalf("stat %+v", s)
	}
}

func TestMetricsRendering(t *testing.T) {
	s := ImageStat{TransmitTime: 2 * time.Second, AvgResponse: 500 * time.Millisecond, Level: 3}
	m := s.Metrics()
	if m["transmit_time"] != 2.0 || m["response_time"] != 0.5 || m["resolution"] != 3 {
		t.Fatalf("metrics %v", m)
	}
}

func TestLowerLevelSendsLessData(t *testing.T) {
	var raw [2]int64
	for i, level := range []int{3, 4} {
		w := testWorld(t, WorldConfig{Params: Params{DR: 64, Codec: "raw", Level: level}})
		stats, err := w.RunSequence(1)
		if err != nil {
			t.Fatal(err)
		}
		raw[i] = stats[0].RawBytes
	}
	// Level 3 carries ~1/4 the coefficients of level 4.
	ratio := float64(raw[1]) / float64(raw[0])
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("level-4/level-3 data ratio %.2f, want ~4", ratio)
	}
}

func TestLargerFoveaFewerRounds(t *testing.T) {
	var rounds [2]int
	var resp [2]time.Duration
	for i, dr := range []int{32, 128} {
		w := testWorld(t, WorldConfig{Params: Params{DR: dr, Codec: "lzw", Level: 4}})
		stats, err := w.RunSequence(1)
		if err != nil {
			t.Fatal(err)
		}
		rounds[i] = stats[0].Rounds
		resp[i] = stats[0].AvgResponse
	}
	if rounds[0] <= rounds[1] {
		t.Fatalf("rounds %v: smaller dR must need more rounds", rounds)
	}
	if resp[0] >= resp[1] {
		t.Fatalf("responses %v: smaller dR must respond faster per round", resp)
	}
}

func TestVerifiedReconstruction(t *testing.T) {
	w := testWorld(t, WorldConfig{
		Params: Params{DR: 64, Codec: "bzw", Level: 4},
		Verify: true,
		Seeds:  []int64{3},
	})
	stats, err := w.RunSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].PSNR < 30 {
		t.Fatalf("PSNR %.1f dB: delivered image is not faithful", stats[0].PSNR)
	}
}

func TestVerifiedReconstructionLowerLevel(t *testing.T) {
	w := testWorld(t, WorldConfig{
		Params: Params{DR: 64, Codec: "lzw", Level: 2},
		Verify: true,
		Seeds:  []int64{4},
	})
	stats, err := w.RunSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].PSNR < 30 {
		t.Fatalf("level-2 PSNR %.1f dB", stats[0].PSNR)
	}
}

func TestCodecChangeMidSessionViaSteering(t *testing.T) {
	w := testWorld(t, WorldConfig{Params: Params{DR: 80, Codec: "lzw", Level: 4}})
	app := Spec()
	agent, err := steering.New(w.Sim, app, Params{DR: 80, Codec: "lzw", Level: 4}.Config())
	if err != nil {
		t.Fatal(err)
	}
	w.Client.AttachSteering(agent)
	var ferr error
	var codecs []string
	w.Sim.Spawn("client", func(p *vtime.Proc) {
		if ferr = w.Client.Connect(p); ferr != nil {
			return
		}
		for i := 0; i < 3; i++ {
			if i == 1 {
				agent.Control().Send(p, steering.ControlMsg{
					Seq:    1,
					Config: Params{DR: 80, Codec: "bzw", Level: 4}.Config(),
				})
			}
			st, err := w.Client.FetchImage(p, 0)
			if err != nil {
				ferr = err
				return
			}
			codecs = append(codecs, st.Codec)
		}
		w.Client.Close(p)
	})
	if err := w.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if ferr != nil {
		t.Fatal(ferr)
	}
	if codecs[0] != "lzw" {
		t.Fatalf("first image codec %s", codecs[0])
	}
	if codecs[2] != "bzw" {
		t.Fatalf("third image codec %s", codecs[2])
	}
	// The server must have been notified (the notify_server transition).
	if w.Server.codec.Name() != "bzw" {
		t.Fatalf("server codec %s", w.Server.codec.Name())
	}
	if w.Server.tel.snapshot().Notifies < 2 { // initial + switch
		t.Fatalf("notifies %d", w.Server.tel.snapshot().Notifies)
	}
}

func TestLevelChangeAppliesAtNextImage(t *testing.T) {
	w := testWorld(t, WorldConfig{Params: Params{DR: 80, Codec: "lzw", Level: 4}})
	app := Spec()
	agent, err := steering.New(w.Sim, app, Params{DR: 80, Codec: "lzw", Level: 4}.Config())
	if err != nil {
		t.Fatal(err)
	}
	w.Client.AttachSteering(agent)
	var levels []int
	var ferr error
	w.Sim.Spawn("client", func(p *vtime.Proc) {
		if ferr = w.Client.Connect(p); ferr != nil {
			return
		}
		// Queue the switch mid-image via a timer firing during image 0.
		w.Sim.After(time.Millisecond, func() {
			agent.Control().TrySend(steering.ControlMsg{
				Seq:    1,
				Config: Params{DR: 80, Codec: "lzw", Level: 3}.Config(),
			})
		})
		for i := 0; i < 2; i++ {
			st, err := w.Client.FetchImage(p, 0)
			if err != nil {
				ferr = err
				return
			}
			levels = append(levels, st.Level)
		}
		w.Client.Close(p)
	})
	if err := w.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if ferr != nil {
		t.Fatal(ferr)
	}
	if levels[0] != 4 {
		t.Fatalf("in-flight image changed level: %v", levels)
	}
	if levels[1] != 3 {
		t.Fatalf("next image kept old level: %v", levels)
	}
}

func TestInteractionResetsFovea(t *testing.T) {
	moved := false
	w := testWorld(t, WorldConfig{Params: Params{DR: 64, Codec: "raw", Level: 4}},
		withInteraction(func(img, round int) (int, int, bool) {
			if round == 1 && !moved {
				moved = true
				return 40, 40, true
			}
			return 0, 0, false
		}))
	stats, err := w.RunSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	// A fovea move restarts the increments, so more rounds than the
	// undisturbed 4.
	if stats[0].Rounds <= 4 {
		t.Fatalf("rounds %d after fovea move", stats[0].Rounds)
	}
	if !moved {
		t.Fatal("interaction hook never ran")
	}
}

func TestFetchErrors(t *testing.T) {
	w := testWorld(t, WorldConfig{Params: Params{DR: 64, Codec: "lzw", Level: 4}})
	var errNoConnect, errBadImage error
	w.Sim.Spawn("client", func(p *vtime.Proc) {
		_, errNoConnect = w.Client.FetchImage(p, 0)
		if err := w.Client.Connect(p); err != nil {
			t.Error(err)
			return
		}
		_, errBadImage = w.Client.FetchImage(p, 99)
		w.Client.Close(p)
	})
	if err := w.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if errNoConnect == nil {
		t.Fatal("fetch before connect succeeded")
	}
	if errBadImage == nil {
		t.Fatal("out-of-range image succeeded")
	}
}

func TestParamsConfigRoundTrip(t *testing.T) {
	p := Params{DR: 160, Codec: "bzw", Level: 3}
	got, err := ParamsFromConfig(p.Config())
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip %+v", got)
	}
	bad := []spec.Config{
		{},
		{"dR": spec.Int(0), "c": spec.Enum("lzw"), "l": spec.Int(4)},
		{"dR": spec.Enum("x"), "c": spec.Enum("lzw"), "l": spec.Int(4)},
		{"dR": spec.Int(80), "c": spec.Int(1), "l": spec.Int(4)},
		{"dR": spec.Int(80), "c": spec.Enum("lzw"), "l": spec.Enum("x")},
	}
	for _, cfg := range bad {
		if _, err := ParamsFromConfig(cfg); err == nil {
			t.Fatalf("config %v accepted", cfg)
		}
	}
}

func TestSpecParses(t *testing.T) {
	app := Spec()
	if app.Name != "active_visualization" {
		t.Fatalf("name %s", app.Name)
	}
	if got := len(app.Enumerate()); got != 18 {
		t.Fatalf("%d configurations", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	measure := func() time.Duration {
		w := testWorld(t, WorldConfig{Params: Params{DR: 64, Codec: "bzw", Level: 4}})
		stats, err := w.RunSequence(2)
		if err != nil {
			t.Fatal(err)
		}
		return stats[0].TransmitTime + stats[1].TransmitTime
	}
	if a, b := measure(), measure(); a != b {
		t.Fatalf("replay mismatch %v vs %v", a, b)
	}
}

func TestServerStatsAndProtocolErrors(t *testing.T) {
	w := testWorld(t, WorldConfig{Params: Params{DR: 64, Codec: "lzw", Level: 4}})
	var gotErr bool
	w.Sim.Spawn("client", func(p *vtime.Proc) {
		if err := w.Client.Connect(p); err != nil {
			t.Error(err)
			return
		}
		// Malformed request → server replies with an error message.
		w.Link.A().Send(p, []byte{tagRequest, 1, 2})
		raw, ok := w.Link.A().Recv(p)
		gotErr = ok && len(raw.Payload) > 0 && raw.Payload[0] == tagError
		// Unknown codec notify → error.
		w.Link.A().Send(p, encodeNotify("zip9000"))
		raw, ok = w.Link.A().Recv(p)
		gotErr = gotErr && ok && raw.Payload[0] == tagError
		w.Client.Close(p)
	})
	if err := w.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotErr {
		t.Fatal("server did not report protocol errors")
	}
	if w.Server.tel.snapshot().Errors != 2 {
		t.Fatalf("server errors %d", w.Server.tel.snapshot().Errors)
	}
}

// Calibration regression: the relationships every figure depends on. These
// run on full-size (1024²) images.
func TestCalibrationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size calibration check")
	}
	run := func(codec string, bw, share float64, level int) ImageStat {
		w := testWorld(t, WorldConfig{
			Side:        1024,
			Bandwidth:   bw,
			ClientShare: share,
			Params:      Params{DR: 320, Codec: codec, Level: level},
			Seeds:       []int64{1},
		})
		stats, err := w.RunSequence(1)
		if err != nil {
			t.Fatal(err)
		}
		return stats[0]
	}
	a500 := run("lzw", 500e3, 1.0, 4)
	b500 := run("bzw", 500e3, 1.0, 4)
	a50 := run("lzw", 50e3, 1.0, 4)
	b50 := run("bzw", 50e3, 1.0, 4)
	// Figure 6(a): crossover.
	if a500.TransmitTime >= b500.TransmitTime {
		t.Errorf("at 500 KB/s LZW (%v) must beat BZW (%v)", a500.TransmitTime, b500.TransmitTime)
	}
	if b50.TransmitTime >= a50.TransmitTime {
		t.Errorf("at 50 KB/s BZW (%v) must beat LZW (%v)", b50.TransmitTime, a50.TransmitTime)
	}
	// Experiment 2: deadline separation at 200 KB/s with BZW.
	l4fast := run("bzw", 200e3, 0.9, 4)
	l4slow := run("bzw", 200e3, 0.4, 4)
	l3slow := run("bzw", 200e3, 0.4, 3)
	if l4fast.TransmitTime.Seconds() >= 10 {
		t.Errorf("level 4 at 90%% share took %v, must be under the 10 s deadline", l4fast.TransmitTime)
	}
	if l4slow.TransmitTime.Seconds() <= 10 {
		t.Errorf("level 4 at 40%% share took %v, must violate the 10 s deadline", l4slow.TransmitTime)
	}
	if l3slow.TransmitTime.Seconds() >= 10 {
		t.Errorf("level 3 at 40%% share took %v, must meet the deadline", l3slow.TransmitTime)
	}
	// Experiment 3: response-time separation (LZW, 500 KB/s).
	r320fast := run("lzw", 500e3, 0.9, 4)
	r320slow := run("lzw", 500e3, 0.4, 4)
	w := testWorld(t, WorldConfig{
		Side: 1024, Bandwidth: 500e3, ClientShare: 0.4,
		Params: Params{DR: 80, Codec: "lzw", Level: 4}, Seeds: []int64{1},
	})
	stats, err := w.RunSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	r80slow := stats[0]
	if r320fast.AvgResponse.Seconds() >= 1.0 {
		t.Errorf("fovea 320 at 90%%: response %v, want < 1 s", r320fast.AvgResponse)
	}
	if r320slow.AvgResponse.Seconds() <= 1.0 {
		t.Errorf("fovea 320 at 40%%: response %v, want > 1 s", r320slow.AvgResponse)
	}
	if r80slow.AvgResponse.Seconds() >= 1.0 {
		t.Errorf("fovea 80 at 40%%: response %v, want < 1 s", r80slow.AvgResponse)
	}
	// Compression ratios stay in the calibrated regime.
	ra := float64(a500.RawBytes) / float64(a500.WireBytes)
	rb := float64(b500.RawBytes) / float64(b500.WireBytes)
	if math.IsNaN(ra) || math.IsNaN(rb) {
		t.Skip("wire bytes not tracked")
	}
	if rb <= ra {
		t.Errorf("BZW ratio %.2f must exceed LZW ratio %.2f", rb, ra)
	}
}

// A lossy link must not prevent a complete, faithful download when retry
// is enabled.
func TestLossyLinkRecovery(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		Params: Params{DR: 64, Codec: "lzw", Level: 4},
		Verify: true,
		Seeds:  []int64{5},
		Store:  testStore,
		Side:   256,
		loss:   0.03, // 3% message loss in both directions
	}, withRetry(2*time.Second, 20))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.RunSequence(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("%d images", len(stats))
	}
	for _, st := range stats {
		if st.PSNR < 30 {
			t.Fatalf("image %d PSNR %.1f under loss", st.Image, st.PSNR)
		}
	}
	if w.Client.Retries() == 0 {
		t.Fatalf("3%% loss produced zero retries — loss not exercised")
	}
}

// A segment lost from the middle of a reply — its Last segment still
// arriving — must stall the round and retransmit it, not complete it
// short: the download ends with every raw byte of the loss-free run.
func TestLossyLinkRecoveryLostSegment(t *testing.T) {
	for _, codec := range []string{"raw", "lzw"} {
		for _, verify := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/verify=%v", codec, verify), func(t *testing.T) {
				run := func(loss float64) ([]ImageStat, *World) {
					w, err := NewWorld(WorldConfig{
						Params: Params{DR: 320, Codec: codec, Level: 4},
						Verify: verify,
						Store:  testStore,
						loss:   loss,
					}, withRetry(2*time.Second, 20))
					if err != nil {
						t.Fatal(err)
					}
					stats, err := w.RunSequence(1)
					if err != nil {
						t.Fatalf("loss %v: %v", loss, err)
					}
					return stats, w
				}
				clean, _ := run(0)
				lossy, w := run(0.03)
				if dropped := w.Link.B().OutCounters().MsgsDropped; dropped == 0 || w.Client.Retries() == 0 {
					t.Errorf("%d retries for %d reply messages dropped; want the lost segments retransmitted",
						w.Client.Retries(), dropped)
				}
				if lossy[0].RawBytes != clean[0].RawBytes {
					t.Errorf("lossy run delivered %d raw bytes, loss-free %d", lossy[0].RawBytes, clean[0].RawBytes)
				}
				if verify && lossy[0].PSNR < 30 {
					t.Errorf("PSNR %.1f under loss", lossy[0].PSNR)
				}
			})
		}
	}
}

// Without retry, a lossy link eventually stalls a round forever; with a
// zero-retry budget the stall surfaces as an error instead of a hang.
func TestLossyLinkStallSurfacesError(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		Params: Params{DR: 64, Codec: "raw", Level: 4},
		Seeds:  []int64{5},
		Store:  testStore,
		Side:   256,
		loss:   0.2,
	}, withRetry(time.Second, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.RunSequence(3)
	if err == nil {
		t.Skip("no message happened to be lost at this seed")
	}
	if err != nil && err.Error() == "" {
		t.Fatal("empty error")
	}
}

// A wandering fovea (the paper's user interaction) must still converge:
// every move restarts the increments, so rounds grow but the download
// still completes and remains faithful around the final fovea.
func TestRandomInteractionWorkload(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		Params: Params{DR: 64, Codec: "lzw", Level: 4},
		Seeds:  []int64{6},
		Store:  testStore,
		Side:   256,
	}, withInteraction(randomInteraction(4, 256, 80)))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.RunSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Rounds <= 4 {
		t.Fatalf("rounds %d: interaction never moved the fovea", stats[0].Rounds)
	}
	// Determinism: same seed, same behaviour.
	w2, err := NewWorld(WorldConfig{
		Params: Params{DR: 64, Codec: "lzw", Level: 4},
		Seeds:  []int64{6},
		Store:  testStore,
		Side:   256,
	}, withInteraction(randomInteraction(4, 256, 80)))
	if err != nil {
		t.Fatal(err)
	}
	stats2, err := w2.RunSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Rounds != stats2[0].Rounds || stats[0].TransmitTime != stats2[0].TransmitTime {
		t.Fatal("interaction workload not deterministic")
	}
}

// Reply segments' Raw fields must account for the whole chunk, so client
// cost accounting neither over- nor under-charges.
func TestSegmentRawAccounting(t *testing.T) {
	w := testWorld(t, WorldConfig{Params: Params{DR: 256, Codec: "bzw", Level: 4}})
	stats, err := w.RunSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	ss := w.Server.tel.snapshot()
	// Client-side accumulated raw bytes within 1% of the server's total
	// (integer rounding per segment).
	diff := float64(stats[0].RawBytes - ss.RawBytes)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(ss.RawBytes) > 0.01 {
		t.Fatalf("client raw %d vs server raw %d", stats[0].RawBytes, ss.RawBytes)
	}
	if ss.CompressedBytes >= ss.RawBytes {
		t.Fatalf("no compression: %d vs %d", ss.CompressedBytes, ss.RawBytes)
	}
	if stats[0].WireBytes != ss.CompressedBytes {
		t.Fatalf("wire bytes %d vs server compressed %d", stats[0].WireBytes, ss.CompressedBytes)
	}
}

// The pyramid store must build each image once and share it.
func TestImageStoreCaches(t *testing.T) {
	st := NewImageStore()
	a, err := st.Pyramid(128, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Pyramid(128, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same key rebuilt")
	}
	c, err := st.Pyramid(128, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds share a pyramid")
	}
}

// Codec switching costs must show on the wire: the same image fetched with
// bzw must ship fewer bytes than with lzw.
func TestWireBytesReflectCodec(t *testing.T) {
	var wire [2]int64
	for i, codec := range []string{"lzw", "bzw"} {
		w := testWorld(t, WorldConfig{Params: Params{DR: 256, Codec: codec, Level: 4}})
		stats, err := w.RunSequence(1)
		if err != nil {
			t.Fatal(err)
		}
		wire[i] = stats[0].WireBytes
	}
	if wire[1] >= wire[0] {
		t.Fatalf("bzw wire %d not smaller than lzw %d", wire[1], wire[0])
	}
}

// randomInteraction builds a deterministic user-interaction model for the
// client: at each round, with probability prob (in 1/256ths), the fovea
// jumps to a pseudo-random position in the image, restarting the
// progressive transmission there — the check_for_user_interaction effect
// of Figure 2. side is the full-resolution image side.
func randomInteraction(seed int64, side int, prob256 int) func(img, round int) (int, int, bool) {
	rng := prng.New(uint64(seed)*0x9E3779B97F4A7C15 + 0xD6E8FEB86659FD93)
	return func(img, round int) (int, int, bool) {
		h := rng.Next()
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
