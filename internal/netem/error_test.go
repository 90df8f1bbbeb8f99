package netem

import (
	"testing"
	"time"

	"tunable/internal/vtime"
)

func TestNewLinkInvalidBandwidthPanics(t *testing.T) {
	for _, bw := range []float64{0, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink with bandwidth %g did not panic", bw)
				}
			}()
			NewLink(vtime.NewSim(), "bad", bw)
		}()
	}
}

func TestSendToClosedLinkDropsInFlight(t *testing.T) {
	sim := vtime.NewSim()
	// Nonzero latency so the frame is still in flight when the link closes.
	l := NewLink(sim, "lan", 1e6, WithLatency(10*time.Millisecond))
	sim.Spawn("sender", func(p *vtime.Proc) {
		l.A().Send(p, make([]byte, 1000))
		// Close A→B before the latency timer delivers the message, then
		// stay alive past the delivery instant (the sim ends when the last
		// process exits, and the drop happens at delivery time).
		l.A().Close()
		p.Sleep(50 * time.Millisecond)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	out := l.A().OutCounters()
	if out.MsgsSent != 1 || out.MsgsDropped != 1 || out.BytesDropped != 1000 {
		t.Fatalf("closed-link send counters: %+v, want the in-flight message dropped", out)
	}
}

// When the last process exits, Run returns without firing pending
// callbacks: a delivery still in flight is neither delivered nor dropped.
func TestLastExitLeavesDeliveriesInFlight(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 1e6, WithLatency(10*time.Millisecond))
	sim.Spawn("sender", func(p *vtime.Proc) {
		l.A().Send(p, make([]byte, 1000))
		l.A().Close()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	out := l.A().OutCounters()
	if out.MsgsSent != 1 || out.MsgsDropped != 0 || out.BytesDropped != 0 {
		t.Fatalf("counters %+v, want one message sent and none dropped", out)
	}
	if sim.Now() != time.Millisecond {
		t.Fatalf("clock %v, want the 1 ms serialization time", sim.Now())
	}
}

func TestSendAfterCloseNeverDelivers(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 1e6, WithLatency(time.Millisecond))
	var got bool
	sim.Spawn("sender", func(p *vtime.Proc) {
		l.A().Close()
		l.A().Send(p, []byte("ghost"))
		p.Sleep(50 * time.Millisecond) // outlive the delivery instant
	})
	sim.Spawn("receiver", func(p *vtime.Proc) {
		_, ok := l.B().Recv(p)
		got = ok
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("message delivered through a closed link")
	}
	if d := l.A().OutCounters().MsgsDropped; d != 1 {
		t.Fatalf("MsgsDropped = %d, want 1", d)
	}
}

func TestRecvOnClosedLinkReturnsNotOK(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 1e6)
	var ok bool
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
		t.Fatal("Recv on a closed link reported ok")
	}
}

func TestSetLossValidation(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 1e6)
	if err := l.SetLoss(-0.1); err == nil {
		t.Error("SetLoss(-0.1) accepted")
	}
	if err := l.SetLoss(1.1); err == nil {
		t.Error("SetLoss(1.1) accepted")
	}
	if err := l.SetLossAtoB(0.3); err != nil {
		t.Fatal(err)
	}
	if got := l.Loss(); got != 0.3 {
		t.Fatalf("Loss() = %v after SetLossAtoB(0.3)", got)
	}
	if err := l.SetBandwidth(-5); err == nil {
		t.Error("SetBandwidth(-5) accepted")
	}
}

func TestAsymmetricLossPartitionsOneDirection(t *testing.T) {
	sim := vtime.NewSim()
	l := NewLink(sim, "lan", 1e6, WithLatency(0))
	if err := l.SetLossAtoB(1); err != nil { // A cannot reach B; B can reach A
		t.Fatal(err)
	}
	var fromA, fromB bool
	sim.Spawn("a", func(p *vtime.Proc) {
		l.A().Send(p, []byte("a→b"))
		_, ok, _ := l.A().RecvTimeout(p, 100*time.Millisecond)
		fromB = ok
	})
	sim.Spawn("b", func(p *vtime.Proc) {
		l.B().Send(p, []byte("b→a"))
		_, ok, _ := l.B().RecvTimeout(p, 100*time.Millisecond)
		fromA = ok
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if fromA {
		t.Fatal("A→B delivered through a full-loss direction")
	}
	if !fromB {
		t.Fatal("B→A should still deliver in an asymmetric partition")
	}
}
