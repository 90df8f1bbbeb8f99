// Package vtime implements a deterministic discrete-event virtual-time
// kernel. It is the execution substrate for the resource-constrained
// "testbed" environment of Chang & Karamcheti's adaptation framework:
// every profiled or adapted application in this repository runs as a set
// of cooperating processes whose notion of time is the simulation clock,
// so experiments replay deterministically and complete in milliseconds of
// wall-clock time regardless of how many virtual seconds they span.
//
// The kernel uses a sequential hand-off discipline: although each process
// is a real goroutine, exactly one process executes at any moment. A
// process runs until it performs a blocking kernel operation (Sleep, a
// channel Send/Recv that cannot complete, Wait on an event); the kernel
// then selects the next runnable process, or, if none is runnable,
// advances the clock to the earliest pending timer. Ties at the same
// timestamp are broken by ascending sequence number, so a given program
// always produces the same schedule.
//
// The scheduler has no goroutine of its own: it runs on whichever
// goroutine holds the execution token. A blocking process picks its
// successor itself and hands the token over with one channel send; when
// the pick is the process itself (a lone sleeper, Sleep(0) on an empty run
// queue) the switch costs no channel operation at all. An exiting process
// hands the token on the same way. Run and RunUntil take the first step
// and then wait for the outcome. Timer callbacks therefore run inside the
// blocking call of some process, on its goroutine (or on Run's caller, in
// the first step).
package vtime

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// ErrDeadlock is returned by Run when live processes remain but none is
// runnable and no timer is pending.
var ErrDeadlock = errors.New("vtime: deadlock: all processes blocked with no pending timers")

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Stop before all processes finished.
var ErrStopped = errors.New("vtime: simulation stopped")

// Sim is a discrete-event simulation kernel. The zero value is not usable;
// construct with NewSim.
type Sim struct {
	now     time.Duration
	seq     uint64
	runq    []*Proc // runq[head:] is the FIFO run queue
	head    int
	timers  timerHeap
	procs   map[int64]*Proc
	nextID  int64
	done    chan error // the scheduler hands Run's outcome back here
	stopped bool
	limit   time.Duration // horizon of the current Run/RunUntil
}

// NewSim returns a fresh simulation whose clock starts at zero.
func NewSim() *Sim {
	return &Sim{
		procs: make(map[int64]*Proc),
		done:  make(chan error, 1),
	}
}

// Now reports the current virtual time. It may be called from within a
// running process or between Run calls; during Run it must only be called
// by the currently executing process.
func (s *Sim) Now() time.Duration { return s.now }

// Proc is the handle a process uses to interact with the kernel. Every
// kernel operation takes the Proc of the calling process; using another
// process's handle corrupts the schedule and is a programming error.
type Proc struct {
	sim    *Sim
	id     int64
	name   string
	resume chan struct{}
	sleep  timer // Sleep's wake-up; sleep timers are never cancelled, so one per process suffices
	// what the process last blocked on, formatted only for deadlock reports
	waitOp, waitOn string
}

// ID returns the process's unique id (assigned in spawn order).
func (p *Proc) ID() int64 { return p.id }

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now reports current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Spawn registers fn as a new process. It may be called before Run or from
// within a running process. The new process becomes runnable immediately
// (it is appended to the run queue) but does not preempt the caller.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	s.nextID++
	p := &Proc{
		sim:    s,
		id:     s.nextID,
		name:   name,
		resume: make(chan struct{}),
	}
	s.procs[p.id] = p
	s.makeRunnable(p)
	go func() {
		<-p.resume // wait until first scheduled
		fn(p)
		delete(s.procs, p.id)
		// Pending callbacks stay unfired once the last process is gone.
		if len(s.procs) == 0 {
			s.done <- nil
		} else if q := s.schedule(); q != nil {
			q.resume <- struct{}{}
		}
	}()
	return p
}

// Spawn creates a child process from within a running process.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	return p.sim.Spawn(name, fn)
}

// timer is a pending wake-up.
type timer struct {
	at      time.Duration
	seq     uint64
	p       *Proc
	stopped bool
	fn      func() // if non-nil, a callback timer rather than a proc wake
}

type timerHeap []*timer

func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)  { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) push(t *timer) { *h = append(*h, t); h.up(len(*h) - 1) }
func (h *timerHeap) pop() *timer {
	old := *h
	n := len(old)
	top := old[0]
	old[0] = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	if len(*h) > 0 {
		h.down(0)
	}
	return top
}
func (h timerHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(i, parent) {
			break
		}
		h.Swap(i, parent)
		i = parent
	}
}
func (h timerHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.Less(l, smallest) {
			smallest = l
		}
		if r < n && h.Less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.Swap(i, smallest)
		i = smallest
	}
}

// addTimer schedules a wake-up for proc p (or callback fn) at absolute time at.
func (s *Sim) addTimer(p *Proc, at time.Duration, fn func()) *timer {
	s.seq++
	t := &timer{at: at, seq: s.seq, p: p, fn: fn}
	s.timers.push(t)
	return t
}

// Run executes the simulation until every process has exited, or no
// progress is possible. It returns nil on normal completion, ErrDeadlock if
// live processes remain blocked forever, and ErrStopped after Stop.
func (s *Sim) Run() error { return s.run(math.MaxInt64) }

// RunUntil runs the simulation but stops (successfully) once virtual time
// would pass t. Processes still alive at that point remain suspended; Run
// or RunUntil may be invoked again to continue.
func (s *Sim) RunUntil(t time.Duration) error { return s.run(t) }

func (s *Sim) run(limit time.Duration) error {
	s.limit = limit
	if p := s.schedule(); p != nil {
		p.resume <- struct{}{}
	}
	return <-s.done
}

// schedule is the one scheduling step, run by whichever goroutine holds
// the token: it returns the next runnable process, advancing the clock
// through timer batches as needed, or nil after handing the outcome of the
// current Run to done.
func (s *Sim) schedule() *Proc {
	for {
		if s.stopped {
			s.done <- ErrStopped
			return nil
		}
		if s.head < len(s.runq) {
			p := s.runq[s.head]
			s.runq[s.head] = nil
			if s.head++; s.head == len(s.runq) {
				s.runq, s.head = s.runq[:0], 0
			}
			return p
		}
		if len(s.timers) > 0 && s.nextTimerAt() > s.limit {
			s.done <- nil // reached the horizon
			return nil
		}
		if !s.advance() {
			if len(s.procs) == 0 {
				s.done <- nil
			} else {
				s.done <- fmt.Errorf("%w: %s", ErrDeadlock, s.blockedSummary())
			}
			return nil
		}
	}
}

func (s *Sim) nextTimerAt() time.Duration {
	for len(s.timers) > 0 && s.timers[0].stopped {
		s.timers.pop()
	}
	if len(s.timers) == 0 {
		return -1
	}
	return s.timers[0].at
}

// advance moves the clock to the earliest pending timer and makes every
// timer due at that instant runnable. It reports whether any timer fired.
func (s *Sim) advance() bool {
	for len(s.timers) > 0 && s.timers[0].stopped {
		s.timers.pop()
	}
	if len(s.timers) == 0 {
		return false
	}
	at := s.timers[0].at
	if at > s.now {
		s.now = at
	}
	for len(s.timers) > 0 {
		top := s.timers[0]
		if top.stopped {
			s.timers.pop()
			continue
		}
		if top.at != at {
			break
		}
		s.timers.pop()
		if top.fn != nil {
			top.fn()
			continue
		}
		s.makeRunnable(top.p)
	}
	return true
}

// Stop aborts the simulation; the current and subsequent Run calls return
// ErrStopped. Must be called from within a running process or a timer
// callback.
func (s *Sim) Stop() { s.stopped = true }

func (s *Sim) blockedSummary() string {
	var names []string
	for _, p := range s.procs {
		names = append(names, p.name+"("+p.waitOp+p.waitOn+")")
	}
	sort.Strings(names)
	if len(names) > 8 {
		names = names[:8]
	}
	return fmt.Sprint(names)
}

// yield blocks p until its wake-up condition, which the caller must
// already have arranged (timer or waiter registration). op and on say what
// p waits for; they are joined only if a deadlock report needs them. The
// calling goroutine runs the scheduler itself: if the pick is p, yield
// returns with no channel operation; otherwise it resumes the pick with one
// send (or hands Run its outcome) and parks until some later pick resumes p.
func (p *Proc) yield(op, on string) {
	p.waitOp, p.waitOn = op, on
	q := p.sim.schedule()
	if q == p {
		return
	}
	if q != nil {
		q.resume <- struct{}{}
	}
	<-p.resume
}

// makeRunnable appends q to the run queue, compacting the consumed front
// away once it is at least half the backing array.
func (s *Sim) makeRunnable(q *Proc) {
	if len(s.runq) == cap(s.runq) && s.head > 0 && s.head >= len(s.runq)/2 {
		n := copy(s.runq, s.runq[s.head:])
		clear(s.runq[n:])
		s.runq, s.head = s.runq[:n], 0
	}
	s.runq = append(s.runq, q)
}

// Sleep suspends the calling process for d of virtual time. Negative or
// zero durations yield the processor without advancing time (the process
// is re-queued behind currently runnable processes). The wake-up reuses the
// timer embedded in p, so Sleep allocates nothing.
func (p *Proc) Sleep(d time.Duration) {
	s := p.sim
	if d <= 0 {
		s.makeRunnable(p)
		p.yield("yield", "")
		return
	}
	s.seq++
	p.sleep = timer{at: s.now + d, seq: s.seq, p: p}
	s.timers.push(&p.sleep)
	p.yield("sleep", "")
}

// SleepUntil suspends the calling process until absolute virtual time t.
func (p *Proc) SleepUntil(t time.Duration) {
	if t <= p.sim.now {
		p.Sleep(0)
		return
	}
	p.Sleep(t - p.sim.now)
}

// After schedules fn to run at now+d in kernel context: not as a process of
// its own, but inside the scheduling step of whichever goroutine holds the
// token when the clock reaches the timer — a blocking process's, or Run's
// caller's in the first step. fn must not block; it
// may spawn processes, send on channels with waiting receivers, or adjust
// state. It returns a cancel function.
func (s *Sim) After(d time.Duration, fn func()) (cancel func()) {
	t := s.addTimer(nil, s.now+d, fn)
	return func() { t.stopped = true }
}

// At schedules fn at absolute virtual time t (see After).
func (s *Sim) At(at time.Duration, fn func()) (cancel func()) {
	if at < s.now {
		at = s.now
	}
	t := s.addTimer(nil, at, fn)
	return func() { t.stopped = true }
}
