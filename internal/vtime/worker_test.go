package vtime

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// drainPool stops every pooled worker, so a test can count what a run
// hands back.
func drainPool() {
	pool.mu.Lock()
	free := pool.free
	pool.free = nil
	pool.mu.Unlock()
	for _, w := range free {
		w.stop()
	}
}

// pooled reports how many workers the pool holds and whether it holds w.
func pooled(w *worker) (int, bool) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return len(pool.free), slices.Contains(pool.free, w)
}

// quickExits spawns n processes that exit at instant zero and returns
// them: by the time a later process fails, their workers are idle.
func quickExits(s *Sim, n int) []*Proc {
	var ps []*Proc
	for range n {
		ps = append(ps, s.Spawn("quick", func(*Proc) {}))
	}
	return ps
}

// checkReturned fails unless exactly the workers of ps are pooled.
func checkReturned(t *testing.T, ps []*Proc) {
	t.Helper()
	for _, p := range ps {
		n, ok := pooled(p.w)
		if !ok {
			t.Errorf("%s's idle worker did not go back to the pool", p.Name())
		}
		if n != len(ps) {
			t.Errorf("pool holds %d workers, want %d", n, len(ps))
		}
	}
}

// checkFreshSimRuns runs a small ping-pong world and checks its result: a
// failed simulation must leave nothing behind that a later one trips on.
func checkFreshSimRuns(t *testing.T) {
	t.Helper()
	s := NewSim()
	ping, pong := NewChan[int](s, 0), NewChan[int](s, 0)
	sum := 0
	s.Spawn("ping", func(p *Proc) {
		for i := 1; i <= 10; i++ {
			ping.Send(p, i)
			v, _ := pong.Recv(p)
			sum += v
		}
	})
	s.Spawn("pong", func(p *Proc) {
		for range 10 {
			v, _ := ping.Recv(p)
			p.Sleep(time.Millisecond)
			pong.Send(p, v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 55 || s.Now() != 10*time.Millisecond {
		t.Fatalf("fresh simulation: sum %d at %v, want 55 at 10ms", sum, s.Now())
	}
}

// A panicking process panics out of Run on the caller's goroutine, where
// it can be recovered; the run's idle workers still go back to the pool.
func TestProcessPanicReachesRun(t *testing.T) {
	drainPool()
	s := NewSim()
	idle := quickExits(s, 3)
	s.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		s.Run()
	}()
	if recovered != "boom" {
		t.Fatalf("recovered %v from Run, want the process's panic", recovered)
	}
	checkReturned(t, idle)
	checkFreshSimRuns(t)
}

// A process that calls runtime.Goexit, as t.FailNow does, ends Run's
// caller the same way, deferred calls run, instead of hanging the kernel.
func TestProcessGoexitEndsRunCaller(t *testing.T) {
	drainPool()
	s := NewSim()
	idle := quickExits(s, 2)
	s.Spawn("failnow", func(p *Proc) {
		p.Sleep(time.Second)
		runtime.Goexit()
	})
	exited, returned := make(chan struct{}), false
	go func() {
		defer close(exited)
		s.Run()
		returned = true
	}()
	select {
	case <-exited:
	case <-time.After(time.Minute):
		t.Fatal("Run's caller did not end after a process's Goexit")
	}
	if returned {
		t.Fatal("Run returned after a process's Goexit")
	}
	checkReturned(t, idle)
	checkFreshSimRuns(t)
}

// The ways a simulation ends in TestWorkersDoNotLeak.
const (
	endFinish   = iota // every process exits
	endHorizon         // a sleeper past the RunUntil horizon stays parked
	endDeadlock        // a receiver nobody sends to stays parked
	endStop            // the process that calls Stop stays parked
	endings
)

// sleepers returns a simulation of n processes that sleep 0 to n-1 ms.
func sleepers(n int) *Sim {
	s := NewSim()
	for j := range n {
		s.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Duration(j) * time.Millisecond) })
	}
	return s
}

// leakWorld runs n sleeping processes, ended the given way, closes the
// simulation and returns how many processes it still holds.
func leakWorld(t *testing.T, n, end int) int {
	s := sleepers(n)
	var err, want error
	switch end {
	case endFinish:
		err = s.Run()
	case endHorizon:
		s.Spawn("late", func(p *Proc) { p.Sleep(time.Hour) })
		err = s.RunUntil(time.Second)
	case endDeadlock:
		gate := NewChan[int](s, 0)
		s.Spawn("stuck", func(p *Proc) { gate.Recv(p) })
		err, want = s.Run(), ErrDeadlock
	case endStop:
		s.Spawn("stop", func(p *Proc) {
			p.Sleep(time.Duration(n) * time.Millisecond)
			s.Stop()
			p.Sleep(time.Hour)
		})
		err, want = s.Run(), ErrStopped
	}
	if !errors.Is(err, want) {
		t.Errorf("%d processes, ending %d: Run returned %v, want %v", n, end, err, want)
	}
	s.Close()
	return len(s.procs)
}

// Pooled workers do not accumulate: after a few hundred simulations that
// finish, stop at a horizon, deadlock or Stop and are closed, the
// goroutines left are the pool's.
func TestWorkersDoNotLeak(t *testing.T) {
	drainPool()
	base := runtime.NumGoroutine()
	parked := 0
	for i := range 300 {
		parked += leakWorld(t, 1+i%64, i%endings)
	}
	if parked != 0 {
		t.Fatalf("closed simulations still hold %d processes", parked)
	}
	// Simulations running at once free more workers than the pool keeps
	// (Spawn takes a worker, so all of them hold theirs before any run);
	// those over its cap are stopped.
	var wg sync.WaitGroup
	for _, s := range []*Sim{sleepers(64), sleepers(64), sleepers(64), sleepers(64), sleepers(64)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Run(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n, _ := pooled(nil); n != poolCap {
		t.Errorf("pool holds %d workers after 320 were freed, want its cap %d", n, poolCap)
	}
	// The five runners may still be exiting after wg.Done; a leak never
	// drops under the limit.
	limit := base + poolCap
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > limit && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > limit {
		t.Fatalf("%d goroutines after the runs, want ≤ %d (baseline %d + pool %d)", got, limit, base, poolCap)
	}
}

// Close unwinds every process an abandoned simulation holds, however it
// ended: each one's deferred calls run, once, a kernel operation in a
// deferred call does not block, a process that never ran is dropped
// without running, and every worker but a panicked process's goes back to
// the pool.
func TestCloseReclaimsParkedProcesses(t *testing.T) {
	for _, tc := range []struct {
		name   string
		block  func(s *Sim) func(p *Proc) // what the three parked processes wait on
		end    func(s *Sim)               // runs the simulation until it ends that way
		pooled int                        // workers pooled after Close
	}{
		// Three nappers, then the late process, which takes a new worker.
		{"horizon", napHour, func(s *Sim) { s.RunUntil(time.Millisecond) }, 4},
		{"deadlock", func(s *Sim) func(p *Proc) {
			gate := NewChan[int](s, 0)
			return func(p *Proc) { gate.Recv(p) }
		}, func(s *Sim) { s.Run() }, 4},
		// The stopping process is parked too.
		{"stop", napHour, func(s *Sim) {
			s.Spawn("stop", func(p *Proc) { s.Stop(); p.Sleep(time.Hour) })
			s.Run()
		}, 5},
		// The panicked process's worker has ended.
		{"panic", napHour, func(s *Sim) {
			s.Spawn("boom", func(p *Proc) { p.Sleep(time.Millisecond); panic("boom") })
			func() {
				defer func() { recover() }()
				s.Run()
			}()
		}, 4},
	} {
		drainPool()
		s := NewSim()
		unwound := 0
		block := tc.block(s)
		for range 3 {
			s.Spawn("parked", func(p *Proc) {
				defer func() { unwound++ }()
				defer p.Sleep(time.Second) // a kernel operation while unwinding
				block(p)
			})
		}
		tc.end(s)
		ran := false
		s.Spawn("late", func(*Proc) { ran = true })
		s.Close()
		if unwound != 3 || ran || len(s.procs) != 0 {
			t.Errorf("%s: %d of 3 processes unwound, late process ran %v, %d processes left",
				tc.name, unwound, ran, len(s.procs))
		}
		if n, _ := pooled(nil); n != tc.pooled {
			t.Errorf("%s: pool holds %d workers after Close, want %d", tc.name, n, tc.pooled)
		}
		if err := s.Run(); !errors.Is(err, ErrStopped) {
			t.Errorf("%s: Run after Close returned %v, want ErrStopped", tc.name, err)
		}
		checkFreshSimRuns(t)
	}
}

func napHour(*Sim) func(p *Proc) { return func(p *Proc) { p.Nap(time.Hour) } }
