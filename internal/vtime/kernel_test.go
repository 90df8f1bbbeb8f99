package vtime

import (
	"errors"
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
