package netem

import (
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"tunable/internal/vtime"
)

func TestSendSerializationTime(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 100_000, WithLatency(0)) // 100 KB/s
	var sendTook time.Duration
	sim.Spawn("sender", func(p *vtime.Proc) {
		start := p.Now()
		l.A().Send(p, make([]byte, 50_000))
		sendTook = p.Now() - start
	})
	sim.Spawn("receiver", func(p *vtime.Proc) {
		if _, ok := l.B().Recv(p); !ok {
			t.Error("recv failed")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sendTook.Seconds()-0.5) > 0.01 {
		t.Fatalf("50 KB at 100 KB/s took %v, want ~0.5s", sendTook)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "wan", 1e9, WithLatency(80*time.Millisecond))
	var deliveredAt time.Duration
	sim.Spawn("sender", func(p *vtime.Proc) {
		l.A().Send(p, []byte("x"))
	})
	sim.Spawn("receiver", func(p *vtime.Proc) {
		l.B().Recv(p)
		deliveredAt = p.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if deliveredAt < 80*time.Millisecond || deliveredAt > 81*time.Millisecond {
		t.Fatalf("delivered at %v, want ~80ms", deliveredAt)
	}
}

func TestBandwidthChangeMidTransfer(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 100_000, WithLatency(0))
	// Halve the bandwidth after the first second: 100 KB sent as
	// 1 s × 100 KB/s = 100 KB? No — change at t=1s to 50 KB/s. Send 150 KB:
	// first 100 KB in 1 s, remaining 50 KB at 50 KB/s in 1 s → 2 s total.
	sim.After(time.Second, func() {
		if err := l.SetBandwidth(50_000); err != nil {
			t.Error(err)
		}
	})
	var took time.Duration
	sim.Spawn("sender", func(p *vtime.Proc) {
		start := p.Now()
		l.A().Send(p, make([]byte, 150_000))
		took = p.Now() - start
	})
	sim.Spawn("receiver", func(p *vtime.Proc) { l.B().Recv(p) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(took.Seconds()-2.0) > 0.05 {
		t.Fatalf("took %v, want ~2s with mid-transfer bandwidth drop", took)
	}
}

func TestQueueingBehindEarlierMessages(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 100_000, WithLatency(0))
	var secondTook time.Duration
	sim.Spawn("s1", func(p *vtime.Proc) {
		l.A().Send(p, make([]byte, 100_000)) // occupies the wire 1 s
	})
	sim.Spawn("s2", func(p *vtime.Proc) {
		start := p.Now()
		l.A().Send(p, make([]byte, 100_000))
		secondTook = p.Now() - start
	})
	sim.Spawn("r", func(p *vtime.Proc) {
		l.B().Recv(p)
		l.B().Recv(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// The two senders interleave frames; both finish by 2 s, and the second
	// sender observed queueing (its send took more than its own 1 s of
	// serialization).
	if secondTook <= time.Second {
		t.Fatalf("second send took %v; expected queueing delay", secondTook)
	}
}

func TestDuplexDirectionsIndependent(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 100_000, WithLatency(0))
	var aTook, bTook time.Duration
	sim.Spawn("a", func(p *vtime.Proc) {
		start := p.Now()
		l.A().Send(p, make([]byte, 100_000))
		aTook = p.Now() - start
	})
	sim.Spawn("b", func(p *vtime.Proc) {
		start := p.Now()
		l.B().Send(p, make([]byte, 100_000))
		bTook = p.Now() - start
	})
	sim.Spawn("ra", func(p *vtime.Proc) { l.A().Recv(p) })
	sim.Spawn("rb", func(p *vtime.Proc) { l.B().Recv(p) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Full duplex: each direction gets the whole bandwidth.
	if math.Abs(aTook.Seconds()-1.0) > 0.02 || math.Abs(bTook.Seconds()-1.0) > 0.02 {
		t.Fatalf("aTook=%v bTook=%v, want ~1s each", aTook, bTook)
	}
}

func TestLossDropsMessages(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lossy", 1e9, WithLatency(0), WithLoss(0.5))
	const n = 200
	sim.Spawn("sender", func(p *vtime.Proc) {
		for i := 0; i < n; i++ {
			l.A().Send(p, []byte{byte(i)})
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	c := l.A().OutCounters()
	if c.MsgsSent != n {
		t.Fatalf("sent %d", c.MsgsSent)
	}
	if c.MsgsDropped < n/4 || c.MsgsDropped > 3*n/4 {
		t.Fatalf("dropped %d of %d at 50%% loss", c.MsgsDropped, n)
	}
}

func TestCountersTrackTraffic(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 100_000, WithLatency(0))
	sim.Spawn("sender", func(p *vtime.Proc) {
		l.A().Send(p, make([]byte, 25_000))
		l.A().Send(p, make([]byte, 25_000))
	})
	sim.Spawn("receiver", func(p *vtime.Proc) {
		l.B().Recv(p)
		l.B().Recv(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	out := l.A().OutCounters()
	if out.BytesSent != 50_000 || out.MsgsSent != 2 {
		t.Fatalf("out counters %+v", out)
	}
	// Observed bandwidth from the sender's perspective: bytes / busy time.
	obs := float64(out.BytesSent) / out.SendBusy.Seconds()
	if math.Abs(obs-100_000)/100_000 > 0.02 {
		t.Fatalf("observed bandwidth %.0f, want ~100000", obs)
	}
	// The receiving side's counts live on the same direction.
	if out.BytesReceived != 50_000 || out.MsgsReceived != 2 {
		t.Fatalf("received counters %+v", out)
	}
}

func TestRecvTimeout(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 1e6, WithLatency(0))
	var ready bool
	sim.Spawn("receiver", func(p *vtime.Proc) {
		_, _, ready = l.B().RecvTimeout(p, 50*time.Millisecond)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if ready {
		t.Fatal("expected timeout on silent link")
	}
}

func TestCloseWakesPeer(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 1e6, WithLatency(0))
	var ok = true
	sim.Spawn("receiver", func(p *vtime.Proc) {
		_, ok = l.B().Recv(p)
	})
	sim.Spawn("closer", func(p *vtime.Proc) {
		p.Sleep(time.Millisecond)
		l.A().Close()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("receiver not woken by close")
	}
}

func TestInvalidBandwidthRejected(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 1e6)
	if err := l.SetBandwidth(0); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if err := l.SetBandwidth(-5); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestShapedConnLimitsRate(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	shaped := NewShapedConn(a, 1<<20) // 1 MiB/s
	const total = 256 << 10           // 256 KiB → ~0.25 s minus burst credit
	done := make(chan time.Duration, 1)
	go func() {
		buf := make([]byte, 32<<10)
		var n int
		for n < total {
			m, err := b.Read(buf)
			if err != nil {
				t.Error(err)
				return
			}
			n += m
		}
	}()
	start := time.Now()
	if _, err := shaped.Write(make([]byte, total)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	done <- elapsed
	// Burst credit is 128 KiB; remaining 128 KiB at 1 MiB/s ≈ 125 ms.
	if elapsed < 80*time.Millisecond {
		t.Fatalf("write finished in %v; shaping ineffective", elapsed)
	}
}

func TestLossDeterministicPerLink(t *testing.T) {
	run := func() int64 {
		sim := vtime.NewSim()
		l := NewLink(sim, "lossy", 1e9, WithLatency(0), WithLoss(0.3))
		sim.Spawn("sender", func(p *vtime.Proc) {
			for i := 0; i < 100; i++ {
				l.A().Send(p, []byte{byte(i)})
			}
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return l.A().OutCounters().MsgsDropped
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("loss not deterministic: %d vs %d", a, b)
	}
}

func TestLatencyReconfigurable(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 1e9, WithLatency(10*time.Millisecond))
	var first, second time.Duration
	sim.Spawn("sender", func(p *vtime.Proc) {
		l.A().Send(p, []byte{1})
		p.Sleep(time.Second)
		l.SetLatency(100 * time.Millisecond)
		l.A().Send(p, []byte{2})
	})
	sim.Spawn("receiver", func(p *vtime.Proc) {
		start := p.Now()
		l.B().Recv(p)
		first = p.Now() - start
		start2 := p.Now()
		l.B().Recv(p)
		second = p.Now() - start2
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if first > 11*time.Millisecond {
		t.Fatalf("first delivery %v", first)
	}
	if second < 100*time.Millisecond {
		t.Fatalf("second delivery %v ignored new latency", second)
	}
}

func TestSmallMessagesNotBatched(t *testing.T) {
	// Many tiny messages keep their individual identities (one Recv each).
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 1e6, WithLatency(0))
	const n = 50
	sim.Spawn("sender", func(p *vtime.Proc) {
		for i := 0; i < n; i++ {
			l.A().Send(p, []byte{byte(i)})
		}
	})
	got := 0
	sim.Spawn("receiver", func(p *vtime.Proc) {
		for i := 0; i < n; i++ {
			msg, ok := l.B().Recv(p)
			if !ok || len(msg.Payload) != 1 || msg.Payload[0] != byte(i) {
				t.Errorf("message %d: %v %v", i, msg, ok)
				return
			}
			got++
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("received %d of %d", got, n)
	}
}

// TestTwoPartMessageEqualsOnePart: over seeded sizes, splits, bandwidths,
// latencies, loss rates and a mid-flight Close, a stream of two-part
// messages and the same stream with each message's parts concatenated
// arrive at the same instants with the same bytes and leave every
// counter on both ends equal — and the delivered parts of a two-part
// message are the sender's slices themselves.
func TestTwoPartMessageEqualsOnePart(t *testing.T) {
	type arrival struct {
		at    time.Duration
		index int
		bytes string
	}
	type outcome struct {
		arrivals []arrival
		out      Counters
	}
	var lost, closedDrops int // cases that exercised each kind of drop
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bw := 1e4 + rng.Float64()*1e7
		lat := time.Duration(rng.Intn(5000)) * time.Microsecond
		loss := []float64{0, 0.1, 0.5}[rng.Intn(3)]
		var msgs []Message
		total := 0
		for i := rng.Intn(12) + 1; i > 0; i-- {
			b := make([]byte, rng.Intn(3*frameSize))
			rng.Read(b)
			cut := rng.Intn(len(b) + 1)
			msgs = append(msgs, Message{Payload: b[:cut], Ref: b[cut:], RefAt: len(msgs)})
			total += len(b)
		}
		closeAt := time.Duration(-1) // or somewhere in the transfer
		if rng.Intn(2) == 0 {
			closeAt = time.Duration(rng.Float64() * (float64(total)/bw*float64(time.Second) + float64(lat)))
		}
		run := func(twoPart bool) outcome {
			sim := vtime.NewSim()
			l := NewLink(sim, "pair", bw, WithLatency(lat), WithLoss(loss))
			if closeAt >= 0 {
				sim.After(closeAt, l.A().Close)
			}
			var o outcome
			sim.Spawn("sender", func(p *vtime.Proc) {
				for _, m := range msgs {
					if !twoPart {
						m = Message{Payload: append(append([]byte{}, m.Payload...), m.Ref...), RefAt: m.RefAt}
					}
					l.A().SendMsg(p, m)
				}
				p.Sleep(lat + time.Millisecond)
				l.A().Close()
			})
			sim.Spawn("receiver", func(p *vtime.Proc) {
				for {
					m, ok := l.B().Recv(p)
					if !ok {
						return
					}
					sent := msgs[m.RefAt]
					if twoPart && (len(m.Payload) > 0 && &m.Payload[0] != &sent.Payload[0] ||
						len(m.Ref) > 0 && &m.Ref[0] != &sent.Ref[0]) {
						t.Errorf("seed %d: message %d was delivered as a copy", seed, m.RefAt)
					}
					o.arrivals = append(o.arrivals, arrival{p.Now(), m.RefAt, string(m.Payload) + string(m.Ref)})
				}
			})
			if err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			o.out = l.A().OutCounters()
			return o
		}
		one, two := run(false), run(true)
		if !reflect.DeepEqual(one, two) {
			t.Errorf("seed %d (bw %.0f, latency %v, loss %v, close at %v): %d arrivals one-part, %d two-part\none-part counters %+v\ntwo-part counters %+v",
				seed, bw, lat, loss, closeAt, len(one.arrivals), len(two.arrivals), one.out, two.out)
			for i := range min(len(one.arrivals), len(two.arrivals)) {
				if a, b := one.arrivals[i], two.arrivals[i]; a != b {
					t.Errorf("arrival %d: message %d at %v one-part, message %d at %v two-part (bytes equal: %v)",
						i, a.index, a.at, b.index, b.at, a.bytes == b.bytes)
					break
				}
			}
		}
		if one.out.MsgsDropped > 0 && loss == 0 {
			closedDrops++
		} else if one.out.MsgsDropped > 0 {
			lost++
		}
	}
	if lost == 0 || closedDrops == 0 {
		t.Errorf("%d cases dropped to loss and %d only at a closed inbox; the seeds must exercise both", lost, closedDrops)
	}
}

// Deliveries, timers and inbox waiters are recycled, so a message through
// a link with latency allocates nothing at steady state.
func TestSendRecvAllocatesNothing(t *testing.T) {
	const n = 500
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 1e6, WithLatency(time.Millisecond))
	a, b := l.A(), l.B()
	payload := make([]byte, 2*frameSize+100)
	per := -1.0
	sim.Spawn("sender", func(p *vtime.Proc) {
		per = testing.AllocsPerRun(n, func() { a.Send(p, payload) })
		p.Sleep(time.Millisecond) // the last message lands before the close
		a.Close()
	})
	got := 0
	sim.Spawn("receiver", func(p *vtime.Proc) {
		for {
			msg, ok := b.Recv(p)
			if !ok {
				return
			}
			if msg.Len() == len(payload) {
				got++
			}
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("%v allocations per message, want 0", per)
	}
	if got != n+1 {
		t.Errorf("received %d whole messages, want %d", got, n+1)
	}
}
