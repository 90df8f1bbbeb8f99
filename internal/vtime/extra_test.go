package vtime

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestCloseDrainsBufferedValuesFirst(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 4)
	var got []int
	var closedOK bool
	s.Spawn("main", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		ch.Close()
		for {
			v, ok := ch.Recv(p)
			if !ok {
				closedOK = true
				return
			}
			got = append(got, v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("drained %v", got)
	}
	if !closedOK {
		t.Fatal("close not observed after drain")
	}
}

func TestSendOnClosedPanics(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 1)
	var recovered any
	s.Spawn("main", func(p *Proc) {
		defer func() { recovered = recover() }()
		ch.Close()
		ch.Send(p, 1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if recovered == nil {
		t.Fatal("send on closed channel did not panic")
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 0)
	ch.Close()
	ch.Close() // must not panic
	if !ch.Closed() {
		t.Fatal("Closed")
	}
}

func TestRecvTimeoutZeroDuration(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 1)
	s.Spawn("main", func(p *Proc) {
		if _, _, ready := ch.RecvTimeout(p, 0); ready {
			t.Error("zero timeout on empty channel reported ready")
		}
		ch.Send(p, 5)
		v, ok, ready := ch.RecvTimeout(p, 0)
		if !ready || !ok || v != 5 {
			t.Errorf("zero timeout with buffered value: %v %v %v", v, ok, ready)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 0 {
		t.Fatalf("zero-timeout ops advanced the clock to %v", s.Now())
	}
}

func TestLenAndCap(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, 3)
	if ch.Cap() != 3 || ch.Len() != 0 {
		t.Fatal("initial len/cap")
	}
	s.Spawn("main", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		if ch.Len() != 2 {
			t.Errorf("len %d", ch.Len())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNestedSpawnRunsBreadthFirst(t *testing.T) {
	s := NewSim()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a")
		p.Spawn("a1", func(q *Proc) { order = append(order, "a1") })
	})
	s.Spawn("b", func(p *Proc) { order = append(order, "b") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v", order)
		}
	}
}

func TestProcIdentity(t *testing.T) {
	s := NewSim()
	p1 := s.Spawn("one", func(p *Proc) {
		if p.Name() != "one" {
			t.Errorf("name %q", p.Name())
		}
		if p.Sim() != s {
			t.Error("Sim()")
		}
	})
	p2 := s.Spawn("two", func(p *Proc) {})
	if p1.ID() == p2.ID() {
		t.Fatal("duplicate ids")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventResetRearm(t *testing.T) {
	s := NewSim()
	ev := NewEvent(s, "e")
	hits := 0
	s.Spawn("waiter", func(p *Proc) {
		ev.Wait(p)
		hits++
		ev.Reset()
		ev.Wait(p)
		hits++
	})
	s.Spawn("setter", func(p *Proc) {
		p.Sleep(time.Second)
		ev.Set()
		p.Sleep(time.Second)
		ev.Set()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Fatalf("hits %d", hits)
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	s := NewSim()
	wg := newWaitGroup(s)
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter did not panic")
		}
	}()
	wg.Done()
}

// Property: for any set of sleep durations, processes wake in sorted order
// of duration (ties by spawn order).
func TestSleepOrderProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 64 {
			return true
		}
		s := NewSim()
		type wake struct {
			d   time.Duration
			idx int
		}
		var wakes []wake
		for i, d := range durs {
			i, d := i, time.Duration(d)*time.Millisecond
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				wakes = append(wakes, wake{d: d, idx: i})
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(wakes); i++ {
			prev, cur := wakes[i-1], wakes[i]
			if prev.d > cur.d {
				return false
			}
			if prev.d == cur.d && prev.idx > cur.idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a pipeline through two vtime channels preserves order and
// content for any payload sequence.
func TestPipelineOrderProperty(t *testing.T) {
	f := func(vals []int32) bool {
		s := NewSim()
		a := NewChan[int32](s, 2)
		bc := NewChan[int32](s, 2)
		s.Spawn("source", func(p *Proc) {
			for _, v := range vals {
				a.Send(p, v)
			}
			a.Close()
		})
		s.Spawn("relay", func(p *Proc) {
			for {
				v, ok := a.Recv(p)
				if !ok {
					bc.Close()
					return
				}
				p.Sleep(time.Microsecond)
				bc.Send(p, v)
			}
		})
		var got []int32
		s.Spawn("sink", func(p *Proc) {
			for {
				v, ok := bc.Recv(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAfterCompletionIsNoop(t *testing.T) {
	s := NewSim()
	s.Spawn("p", func(p *Proc) { p.Sleep(time.Second) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Running again with no processes must return immediately.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != time.Second {
		t.Fatalf("clock moved to %v", s.Now())
	}
}

func TestSleepUntilPast(t *testing.T) {
	s := NewSim()
	s.Spawn("p", func(p *Proc) {
		p.Sleep(time.Second)
		p.SleepUntil(500 * time.Millisecond) // already past: yields only
		if p.Now() != time.Second {
			t.Errorf("clock %v", p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
