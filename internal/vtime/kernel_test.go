package vtime

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// A process's Sleep reuses the timer embedded in its Proc, so a steady
// stream of sleeps allocates nothing.
func TestSleepAllocatesNothing(t *testing.T) {
	s := NewSim()
	perSleep := -1.0
	s.Spawn("sleeper", func(p *Proc) {
		perSleep = testing.AllocsPerRun(1000, func() { p.Sleep(time.Millisecond) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if perSleep != 0 {
		t.Fatalf("%v allocations per Sleep, want 0", perSleep)
	}
}

// steadyAllocs builds a world in a fresh simulation, runs its measured
// operation on one process and its partner's, n+1 times (AllocsPerRun's
// warm-up run included), on another, and returns the measured operation's
// allocations per call. Both processes' allocations count.
func steadyAllocs(t *testing.T, n int, build func(s *Sim) (measure, partner func(p *Proc))) float64 {
	t.Helper()
	s := NewSim()
	measure, partner := build(s)
	per := -1.0
	s.Spawn("measured", func(p *Proc) {
		per = testing.AllocsPerRun(n, func() { measure(p) })
	})
	s.Spawn("partner", func(p *Proc) {
		for i := 0; i <= n; i++ {
			partner(p)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return per
}

// Callback timers, channel waiters and RecvTimeout's expiry are recycled,
// so each blocking operation allocates nothing at steady state.
func TestBlockingOpsAllocateNothing(t *testing.T) {
	const n = 500
	nop := func(*Proc) {}
	fired := 0
	// sendEach and recvEach are the partner that unblocks a waiting
	// receiver or sender once a millisecond.
	sendEach := func(c *Chan[int]) func(*Proc) {
		return func(p *Proc) { p.Sleep(time.Millisecond); c.Send(p, 1) }
	}
	recvEach := func(c *Chan[int]) func(*Proc) {
		return func(p *Proc) { p.Sleep(time.Millisecond); c.Recv(p) }
	}
	for _, tc := range []struct {
		name  string
		build func(s *Sim) (measure, partner func(p *Proc))
	}{
		{"after", func(s *Sim) (func(*Proc), func(*Proc)) {
			fire := func() { fired++ }
			return func(p *Proc) { s.After(time.Millisecond, fire); p.Sleep(2 * time.Millisecond) }, nop
		}},
		{"recv", func(s *Sim) (func(*Proc), func(*Proc)) {
			c := NewChan[int](s, 0)
			return func(p *Proc) { c.Recv(p) }, sendEach(c)
		}},
		{"send", func(s *Sim) (func(*Proc), func(*Proc)) {
			c := NewChan[int](s, 0)
			return func(p *Proc) { c.Send(p, 1) }, recvEach(c)
		}},
		{"recv-timeout-delivered", func(s *Sim) (func(*Proc), func(*Proc)) {
			c := NewChan[int](s, 0)
			return func(p *Proc) { c.RecvTimeout(p, time.Second) }, sendEach(c)
		}},
		{"recv-timeout-expired", func(s *Sim) (func(*Proc), func(*Proc)) {
			c := NewChan[int](s, 0)
			return func(p *Proc) { c.RecvTimeout(p, time.Millisecond) }, nop
		}},
		{"nap-woken", func(s *Sim) (func(*Proc), func(*Proc)) {
			var napper *Proc
			return func(p *Proc) { napper = p; p.Nap(time.Hour) },
				func(p *Proc) { p.Sleep(time.Millisecond); napper.Wake() }
		}},
	} {
		if per := steadyAllocs(t, n, tc.build); per != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, per)
		}
	}
	if fired != n+1 {
		t.Errorf("after: %d callbacks fired, want %d", fired, n+1)
	}
}

// A Nap runs its course unless Wake cuts it short, at the instant of the
// Wake; Wake leaves a plain Sleep, a nap whose timer has fired and a
// second call alone.
func TestNapWake(t *testing.T) {
	s := NewSim()
	var log []string
	note := func(p *Proc, what string) { log = append(log, fmt.Sprintf("%v %s %s", p.Now(), p.Name(), what)) }
	var napper, sleeper, tied *Proc
	napper = s.Spawn("napper", func(p *Proc) {
		note(p, fmt.Sprint(p.Nap(10*time.Millisecond))) // runs its course
		note(p, fmt.Sprint(p.Nap(time.Hour)))           // a callback wakes it at 13ms
		note(p, fmt.Sprint(p.Nap(time.Hour)))           // the waker process, at 20ms
	})
	sleeper = s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(30 * time.Millisecond) // Wake at 20ms leaves it alone
		note(p, "slept")
	})
	s.At(13*time.Millisecond, func() { napper.Wake(); napper.Wake() })
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		tied.Wake() // tied's timer has fired, though tied has not run yet
		p.Sleep(15 * time.Millisecond)
		napper.Wake()
		sleeper.Wake()
		note(p, "woke")
	})
	tied = s.Spawn("tied", func(p *Proc) {
		note(p, fmt.Sprint(p.Nap(5*time.Millisecond))) // armed after the waker's sleep
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"5ms tied true", "10ms napper true", "13ms napper false",
		"20ms waker woke", "20ms napper false", "30ms sleeper slept",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("log %q, want %q", log, want)
	}
}

// Wake takes the nap's timer out of the middle of the heap; every other
// timer still fires in (instant, arming) order.
func TestWakeKeepsTimerOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSim()
	type wake struct {
		at  time.Duration
		seq int
	}
	var got, want []wake
	var nappers []*Proc
	for i := range 200 {
		d := time.Duration(1+rng.Intn(50)) * time.Millisecond
		if i%3 == 0 {
			nappers = append(nappers, s.Spawn("napper", func(p *Proc) { p.Nap(time.Hour + d) }))
			continue
		}
		want = append(want, wake{d, i})
		s.Spawn("sleeper", func(p *Proc) { p.Sleep(d); got = append(got, wake{p.Now(), i}) })
	}
	for _, n := range nappers {
		s.At(time.Duration(rng.Intn(50))*time.Millisecond, n.Wake)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(want, func(a, b wake) int { return int(a.at - b.at) })
	if !slices.Equal(got, want) {
		t.Fatalf("sleepers woke in order %v, want %v", got, want)
	}
	if s.Now() >= time.Hour {
		t.Fatalf("a woken nap's timer still fired: the run ended at %v", s.Now())
	}
}

// A handle whose timer fired and was re-armed for another callback must
// not cancel the new occupant: Stop checks the arming's seq.
func TestStaleHandleStopIsNoOp(t *testing.T) {
	s := NewSim()
	first, second := false, false
	s.Spawn("main", func(p *Proc) {
		stale := s.callback(s.Now()+time.Second, func() { first = true })
		p.Sleep(2 * time.Second)
		fresh := s.callback(s.Now()+time.Second, func() { second = true })
		if fresh.t != stale.t {
			t.Error("the fired timer was not reused")
		}
		stale.Stop()
		p.Sleep(2 * time.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !first || !second {
		t.Fatalf("first fired %v, second fired %v; want both", first, second)
	}
}

// RunUntil(0) is a horizon at zero, not "no limit": processes run their
// instant-zero work and stay suspended until a later Run resumes them.
func TestRunUntilZeroHorizon(t *testing.T) {
	s := NewSim()
	started, woke := false, time.Duration(-1)
	s.Spawn("p", func(p *Proc) {
		started = true
		p.Sleep(time.Second)
		woke = p.Now()
	})
	if err := s.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	if !started || woke != -1 || s.Now() != 0 {
		t.Fatalf("after RunUntil(0): started=%v woke=%v now=%v", started, woke, s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != time.Second {
		t.Fatalf("resumed process woke at %v, want 1s", woke)
	}
}

func TestStopFromCallback(t *testing.T) {
	s := NewSim()
	defer s.Close() // the run leaves processes parked
	s.After(time.Second, s.Stop)
	s.Spawn("p", func(p *Proc) { p.Sleep(10 * time.Second) })
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("err=%v, want ErrStopped", err)
	}
	if s.Now() != time.Second {
		t.Fatalf("stopped at %v, want 1s", s.Now())
	}
}

// The deadlock report still names what each process waits on.
func TestDeadlockNamesWaits(t *testing.T) {
	s := NewSim()
	defer s.Close() // the run leaves processes parked
	ch := NewNamedChan[int](s, 0, "inbox")
	ev := NewEvent(s, "go")
	s.Spawn("r", func(p *Proc) { ch.Recv(p) })
	s.Spawn("w", func(p *Proc) { ev.Wait(p) })
	err := s.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err=%v, want ErrDeadlock", err)
	}
	for _, want := range []string{"r(recv inbox)", "w(event go)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock report %q does not name %q", err, want)
		}
	}
}
