package vtime

import (
	"fmt"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	s := NewSim()
	var woke time.Duration
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("sim clock %v, want 5s", s.Now())
	}
}

func TestSleepOrderingDeterministic(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		s := NewSim()
		var order []string
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("p%d", i)
			d := time.Duration(5-i) * time.Second
			s.Spawn(name, func(p *Proc) {
				p.Sleep(d)
				order = append(order, p.Name())
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		want := []string{"p4", "p3", "p2", "p1", "p0"}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("trial %d: order %v, want %v", trial, order, want)
			}
		}
	}
}

func TestSameInstantTieBreakBySeq(t *testing.T) {
	s := NewSim()
	var order []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("p%d", i)
		s.Spawn(name, func(p *Proc) {
			p.Sleep(time.Second)
			order = append(order, p.Name())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"p0", "p1", "p2", "p3"} {
		if order[i] != want {
			t.Fatalf("order %v", order)
		}
	}
}

func TestZeroSleepYields(t *testing.T) {
	s := NewSim()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if s.Now() != 0 {
		t.Fatalf("clock advanced to %v on zero sleep", s.Now())
	}
}

func TestUnbufferedChannelRendezvous(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 0)
	var got int
	var recvAt, sendDone time.Duration
	s.Spawn("sender", func(p *Proc) {
		p.Sleep(2 * time.Second)
		ch.Send(p, 42)
		sendDone = p.Now()
	})
	s.Spawn("receiver", func(p *Proc) {
		got, _ = ch.Recv(p)
		recvAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d", got)
	}
	if recvAt != 2*time.Second || sendDone != 2*time.Second {
		t.Fatalf("recvAt=%v sendDone=%v", recvAt, sendDone)
	}
}

func TestBufferedChannelDoesNotBlockSender(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 3)
	var sendDone time.Duration = -1
	s.Spawn("sender", func(p *Proc) {
		for i := 0; i < 3; i++ {
			ch.Send(p, i)
		}
		sendDone = p.Now()
	})
	s.Spawn("receiver", func(p *Proc) {
		p.Sleep(time.Second)
		for i := 0; i < 3; i++ {
			v, ok := ch.Recv(p)
			if !ok || v != i {
				t.Errorf("recv %d %v", v, ok)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != 0 {
		t.Fatalf("buffered sends blocked until %v", sendDone)
	}
}

func TestChannelBlocksWhenFull(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 1)
	var sendDone time.Duration
	s.Spawn("sender", func(p *Proc) {
		ch.Send(p, 1) // buffered
		ch.Send(p, 2) // blocks until receiver drains
		sendDone = p.Now()
	})
	s.Spawn("receiver", func(p *Proc) {
		p.Sleep(3 * time.Second)
		ch.Recv(p)
		ch.Recv(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != 3*time.Second {
		t.Fatalf("second send completed at %v, want 3s", sendDone)
	}
}

func TestChannelFIFOAcrossManySenders(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 0)
	var got []int
	for i := 0; i < 8; i++ {
		v := i
		s.Spawn(fmt.Sprintf("s%d", i), func(p *Proc) {
			p.Sleep(time.Duration(v) * time.Millisecond)
			ch.Send(p, v)
		})
	}
	s.Spawn("r", func(p *Proc) {
		for i := 0; i < 8; i++ {
			v, _ := ch.Recv(p)
			got = append(got, v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got[i] != i {
			t.Fatalf("got %v", got)
		}
	}
}

func TestCloseWakesReceivers(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 0)
	var ok bool = true
	s.Spawn("r", func(p *Proc) {
		_, ok = ch.Recv(p)
	})
	s.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Second)
		ch.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("receiver did not observe close")
	}
}

func TestRecvTimeoutExpires(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 0)
	var ready bool
	var at time.Duration
	s.Spawn("r", func(p *Proc) {
		_, _, ready = ch.RecvTimeout(p, 100*time.Millisecond)
		at = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ready {
		t.Fatal("expected timeout")
	}
	if at != 100*time.Millisecond {
		t.Fatalf("timed out at %v", at)
	}
}

func TestRecvTimeoutDelivery(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 0)
	var v int
	var ready bool
	s.Spawn("r", func(p *Proc) {
		v, _, ready = ch.RecvTimeout(p, time.Hour)
	})
	s.Spawn("s", func(p *Proc) {
		p.Sleep(time.Second)
		ch.Send(p, 7)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ready || v != 7 {
		t.Fatalf("ready=%v v=%d", ready, v)
	}
}

func TestRecvTimeoutExpiredWaiterSkippedBySender(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 1)
	s.Spawn("r", func(p *Proc) {
		if _, _, ready := ch.RecvTimeout(p, time.Second); ready {
			t.Error("first recv should time out")
		}
		// Second receive must get the value the sender posted after expiry.
		v, ok := ch.Recv(p)
		if !ok || v != 9 {
			t.Errorf("second recv got %d %v", v, ok)
		}
	})
	s.Spawn("s", func(p *Proc) {
		p.Sleep(2 * time.Second)
		ch.Send(p, 9)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := NewSim()
	defer s.Close() // the run leaves processes parked
	ch := NewChan[int](s, 0)
	s.Spawn("stuck", func(p *Proc) {
		ch.Recv(p)
	})
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestRunUntilSuspends(t *testing.T) {
	s := NewSim()
	var ticks int
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Second)
			ticks++
		}
	})
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks=%d at horizon, want 10", ticks)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 100 {
		t.Fatalf("ticks=%d after resume, want 100", ticks)
	}
}

func TestAfterCallback(t *testing.T) {
	s := NewSim()
	var fired time.Duration = -1
	s.Spawn("main", func(p *Proc) {
		s.After(3*time.Second, func() { fired = s.Now() })
		p.Sleep(10 * time.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 3*time.Second {
		t.Fatalf("callback fired at %v", fired)
	}
}

func TestAfterCancel(t *testing.T) {
	s := NewSim()
	fired := false
	s.Spawn("main", func(p *Proc) {
		s.callback(s.Now()+3*time.Second, func() { fired = true }).Stop()
		p.Sleep(10 * time.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled callback fired")
	}
}

func TestSpawnFromProcess(t *testing.T) {
	s := NewSim()
	var childRan bool
	s.Spawn("parent", func(p *Proc) {
		p.Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = true
		})
		p.Sleep(2 * time.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child did not run")
	}
}

func TestEventBroadcast(t *testing.T) {
	s := NewSim()
	ev := NewEvent(s, "go")
	var wokeAt []time.Duration
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			ev.Wait(p)
			wokeAt = append(wokeAt, p.Now())
		})
	}
	s.Spawn("setter", func(p *Proc) {
		p.Sleep(4 * time.Second)
		ev.Set()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wokeAt) != 3 {
		t.Fatalf("woke %d waiters", len(wokeAt))
	}
	for _, at := range wokeAt {
		if at != 4*time.Second {
			t.Fatalf("waiter woke at %v", at)
		}
	}
}

func TestWaitGroup(t *testing.T) {
	s := NewSim()
	wg := newWaitGroup(s)
	var doneAt time.Duration
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		d := time.Duration(i) * time.Second
		s.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	s.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 3*time.Second {
		t.Fatalf("waitgroup released at %v", doneAt)
	}
}

func TestStop(t *testing.T) {
	s := NewSim()
	defer s.Close() // the run leaves processes parked
	s.Spawn("forever", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			if p.Now() >= 5*time.Second {
				s.Stop()
				// The process must still yield so the kernel regains control.
				p.Sleep(time.Second)
			}
		}
	})
	err := s.Run()
	if err != ErrStopped {
		t.Fatalf("err=%v, want ErrStopped", err)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("stopped at %v", s.Now())
	}
}

func TestManyProcessesStress(t *testing.T) {
	s := NewSim()
	const n = 200
	ch := NewChan[int](s, 16)
	sum := 0
	for i := 0; i < n; i++ {
		v := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Duration(v%7) * time.Millisecond)
			ch.Send(p, v)
		})
	}
	s.Spawn("collector", func(p *Proc) {
		for i := 0; i < n; i++ {
			v, _ := ch.Recv(p)
			sum += v
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != n*(n-1)/2 {
		t.Fatalf("sum=%d", sum)
	}
}

func TestTrySendTryRecv(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 1)
	s.Spawn("main", func(p *Proc) {
		if _, _, ready := ch.TryRecv(); ready {
			t.Error("TryRecv on empty should not be ready")
		}
		if !ch.TrySend(5) {
			t.Error("TrySend to empty buffer failed")
		}
		if ch.TrySend(6) {
			t.Error("TrySend to full buffer succeeded")
		}
		v, ok, ready := ch.TryRecv()
		if !ready || !ok || v != 5 {
			t.Errorf("TryRecv got %d %v %v", v, ok, ready)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAtSchedulesAbsolute(t *testing.T) {
	s := NewSim()
	var at time.Duration = -1
	s.Spawn("main", func(p *Proc) {
		p.Sleep(2 * time.Second)
		s.At(7*time.Second, func() { at = s.Now() })
		p.Sleep(10 * time.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7*time.Second {
		t.Fatalf("At callback fired at %v", at)
	}
}
