// Package vtime implements a deterministic discrete-event virtual-time
// kernel. It is the execution substrate for the resource-constrained
// "testbed" environment of Chang & Karamcheti's adaptation framework:
// every profiled or adapted application in this repository runs as a set
// of cooperating processes whose notion of time is the simulation clock,
// so experiments replay deterministically and complete in milliseconds of
// wall-clock time regardless of how many virtual seconds they span.
//
// Exactly one process executes at any moment. A process runs until it
// performs a blocking kernel operation (Sleep, a channel Send/Recv that
// cannot complete, Wait on an event); the kernel then selects the next
// runnable process, or, if none is runnable, advances the clock to the
// earliest pending timer. Ties at the same timestamp are broken by
// ascending sequence number, so a given program always produces the same
// schedule.
//
// Each process runs on a runtime coroutine (iter.Pull); Run and RunUntil
// are a driver loop on the caller's goroutine that resumes one pick after
// another. A process that blocks runs the scheduling step on its own
// stack: if the pick is itself (a lone sleeper, Sleep(0) on an empty run
// queue) it simply returns, otherwise it leaves the pick for the driver
// loop and parks, one coroutine switch instead of a goroutine hand-off.
// An exiting process picks its successor the same way. Timer callbacks
// therefore run inside the blocking call of some process (or on Run's
// caller, in the first step). A panic or runtime.Goexit (t.FailNow) in a
// process leaves Run on the caller's goroutine.
//
// Coroutines are recycled as workers: once its function returns, a worker
// parks until Spawn hands it another. A run's idle workers go to a pool
// shared by simulations on every goroutine when the run ends; those
// beyond its cap are stopped. Processes alive in an abandoned simulation
// (an unresumed RunUntil horizon, a deadlock, Stop, a panic) stay parked
// on their workers, as a blocked goroutine would, until Close unwinds
// them and pools their workers.
package vtime

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"sync"
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
	runq    queue[*Proc]
	timers  timerHeap
	free    []*timer // callback timers that left the heap, reused by callback
	procs   map[int64]*Proc
	nextID  int64
	idle    []*worker // workers whose process exited this run; pooled when it ends
	pick    *Proc     // the process a parking process leaves for the driver loop
	outcome error     // the current Run's result, written when no pick remains
	stopped bool
	closing bool          // Close is unwinding the parked processes
	limit   time.Duration // horizon of the current Run/RunUntil
}

// NewSim returns a fresh simulation whose clock starts at zero.
func NewSim() *Sim {
	return &Sim{procs: make(map[int64]*Proc)}
}

// Now reports the current virtual time. It may be called from within a
// running process or between Run calls; during Run it must only be called
// by the currently executing process.
func (s *Sim) Now() time.Duration { return s.now }

// Proc is the handle a process uses to interact with the kernel. Every
// kernel operation takes the Proc of the calling process; using another
// process's handle corrupts the schedule and is a programming error.
type Proc struct {
	sim   *Sim
	id    int64
	name  string
	w     *worker // the coroutine the process runs on
	sleep timer   // Sleep's and Nap's wake-up: a process sleeps at most once at a time
	// napping is set while the process is in a Nap that Wake has not cut
	// short.
	napping bool
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
		sim:  s,
		id:   s.nextID,
		name: name,
		w:    s.worker(),
	}
	p.w.p, p.w.fn = p, fn
	s.procs[p.id] = p
	s.makeRunnable(p)
	return p
}

// poolCap bounds the idle workers kept between runs: enough for the
// largest simulations here (a mix runs ≈ 60 processes) on a few
// goroutines at once.
const poolCap = 256

// pool holds idle workers for any simulation on any goroutine. It is not a
// sync.Pool: an idle worker is a parked goroutine, and one the garbage
// collector dropped would never be stopped.
var pool struct {
	mu   sync.Mutex
	free []*worker
}

// worker is a coroutine that runs one process after another. Its next
// resumes it; park, valid once it has started, suspends it until the
// next resume.
type worker struct {
	next func() (struct{}, bool)
	stop func()
	park func(struct{}) bool
	p    *Proc       // the process to run when resumed idle
	fn   func(*Proc) // and its function
}

// worker returns an idle worker: one this run freed, else one from the
// pool, else a new coroutine.
func (s *Sim) worker() *worker {
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle = s.idle[:n-1]
		return w
	}
	pool.mu.Lock()
	if n := len(pool.free); n > 0 {
		w := pool.free[n-1]
		pool.free[n-1] = nil
		pool.free = pool.free[:n-1]
		pool.mu.Unlock()
		return w
	}
	pool.mu.Unlock()
	w := new(worker)
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// loop is a worker's body: run the assigned process, deregister it, leave
// the next pick for the driver loop, and park idle until reassigned.
func (w *worker) loop(park func(struct{}) bool) {
	w.park = park
	for {
		p, fn := w.p, w.fn
		w.p, w.fn = nil, nil
		call(p, fn)
		s := p.sim
		delete(s.procs, p.id)
		// Pending callbacks stay unfired once the last process is gone,
		// and nothing is scheduled while Close unwinds the rest.
		switch {
		case s.closing:
		case len(s.procs) == 0:
			s.outcome = nil
		default:
			s.pick = s.schedule()
		}
		// Only now: a callback in schedule may Spawn, and must not take a
		// worker that has not parked yet.
		s.idle = append(s.idle, w)
		if !park(struct{}{}) {
			return
		}
	}
}

// errClosed is the panic with which a process parked when Close runs
// unwinds: its worker recovers it.
var errClosed = errors.New("vtime: simulation closed")

// call runs fn(p), recovering the unwinding Close starts in p. Any other
// panic goes on to Run's caller.
func call(p *Proc, fn func(*Proc)) {
	defer func() {
		if p.sim.closing {
			if r := recover(); r != nil && r != errClosed {
				panic(r)
			}
		}
	}()
	fn(p)
}

// Close reclaims a simulation that will not run again. Every process still
// alive — parked after a deadlock, Stop, an unresumed RunUntil horizon or
// a panic — is resumed with a stop signal: its pending kernel operation
// panics, its deferred calls run (a kernel operation in one panics the
// same way), and its worker goes back to the pool. A process that was
// spawned but never ran is dropped without running. Close must be called
// from outside the simulation, after Run or RunUntil has returned; Run
// after Close reports ErrStopped.
func (s *Sim) Close() {
	s.closing, s.stopped = true, true
	for len(s.procs) > 0 {
		for id, p := range s.procs {
			delete(s.procs, id)
			if p.w.p == p { // never resumed: the worker still holds the assignment
				p.w.p, p.w.fn = nil, nil
				s.idle = append(s.idle, p.w)
				continue
			}
			// A parked process unwinds and its worker parks idle again; the
			// worker of one that panicked out of Run has ended, and next
			// returns at once.
			p.w.next()
		}
	}
	s.release()
}

// release hands the run's idle workers to the pool and stops those over
// its cap.
func (s *Sim) release() {
	if len(s.idle) == 0 {
		return
	}
	pool.mu.Lock()
	n := min(len(s.idle), poolCap-len(pool.free))
	pool.free = append(pool.free, s.idle[:n]...)
	pool.mu.Unlock()
	for _, w := range s.idle[n:] {
		w.stop()
	}
	clear(s.idle)
	s.idle = s.idle[:0]
}

// Spawn creates a child process from within a running process.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	return p.sim.Spawn(name, fn)
}

// timer is a pending wake-up: of process p, or, when p is nil, a callback
// timer that runs fn. Callback timers are recycled (see callback); a
// process's embedded sleep timer never is. A stopped callback timer stays
// in the heap until it reaches the top; a sleep timer is cancelled only by
// Wake, which takes it out at once, and queued says whether it is in.
type timer struct {
	at      time.Duration
	seq     uint64
	p       *Proc
	stopped bool
	queued  bool
	fn      func()
}

// timerHandle names one arming of a recycled callback timer: seq tells it
// from later armings of the same timer.
type timerHandle struct {
	t   *timer
	seq uint64
}

// Stop cancels the callback. Once the timer has fired and been re-armed
// its seq has moved on, and Stop is a no-op.
func (h timerHandle) Stop() {
	if h.t.seq == h.seq {
		h.t.stopped = true
	}
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

// remove takes t out of the heap, wherever it is.
func (h *timerHeap) remove(t *timer) {
	old := *h
	i := slices.Index(old, t)
	n := len(old) - 1
	old.Swap(i, n)
	old[n] = nil
	*h = old[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
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

// callback schedules fn at absolute time at on a timer from the free
// list, allocating one only when the list is empty.
func (s *Sim) callback(at time.Duration, fn func()) timerHandle {
	var t *timer
	if n := len(s.free); n > 0 {
		t, s.free = s.free[n-1], s.free[:n-1]
	} else {
		t = new(timer)
	}
	s.seq++
	*t = timer{at: at, seq: s.seq, fn: fn}
	s.timers.push(t)
	return timerHandle{t, t.seq}
}

// recycle returns a timer that has left the heap to the free list, unless
// it is a process's sleep timer.
func (s *Sim) recycle(t *timer) {
	if t.p == nil {
		t.fn = nil
		s.free = append(s.free, t)
	}
}

// Run executes the simulation until every process has exited, or no
// progress is possible. It returns nil on normal completion, ErrDeadlock if
// live processes remain blocked forever, and ErrStopped after Stop.
func (s *Sim) Run() error { return s.run(math.MaxInt64) }

// RunUntil runs the simulation but stops (successfully) once virtual time
// would pass t. Processes still alive at that point remain suspended; Run
// or RunUntil may be invoked again to continue.
func (s *Sim) RunUntil(t time.Duration) error { return s.run(t) }

// run is the driver loop: it resumes each pick until none is left. Idle
// workers go back to the pool however the run ends, a panic included.
func (s *Sim) run(limit time.Duration) error {
	s.limit = limit
	defer s.release()
	for p := s.schedule(); p != nil; p = s.pick {
		s.pick = nil
		p.w.next()
	}
	return s.outcome
}

// schedule is the one scheduling step, run by the blocking or exiting
// process (or by Run, in the first step): it returns the next runnable
// process, advancing the clock through timer batches as needed, or nil
// after writing the current Run's outcome.
func (s *Sim) schedule() *Proc {
	for {
		if s.stopped {
			s.outcome = ErrStopped
			return nil
		}
		if s.runq.len() > 0 {
			return s.runq.pop()
		}
		if len(s.timers) > 0 && s.nextTimerAt() > s.limit {
			s.outcome = nil // reached the horizon
			return nil
		}
		if !s.advance() {
			if len(s.procs) == 0 {
				s.outcome = nil
			} else {
				s.outcome = fmt.Errorf("%w: %s", ErrDeadlock, s.blockedSummary())
			}
			return nil
		}
	}
}

// dropStopped pops stopped timers off the top of the heap.
func (s *Sim) dropStopped() {
	for len(s.timers) > 0 && s.timers[0].stopped {
		s.recycle(s.timers.pop())
	}
}

func (s *Sim) nextTimerAt() time.Duration {
	s.dropStopped()
	if len(s.timers) == 0 {
		return -1
	}
	return s.timers[0].at
}

// advance moves the clock to the earliest pending timer and makes every
// timer due at that instant runnable. It reports whether any timer fired.
func (s *Sim) advance() bool {
	s.dropStopped()
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
			s.recycle(s.timers.pop())
			continue
		}
		if top.at != at {
			break
		}
		s.timers.pop()
		if top.p != nil {
			top.queued = false
			s.makeRunnable(top.p)
			continue
		}
		// Recycled before it runs: fn may re-arm the very same timer.
		fn := top.fn
		s.recycle(top)
		fn()
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
// p waits for; they are joined only if a deadlock report needs them. p
// runs the scheduling step itself: if the pick is p, yield returns without
// a switch; otherwise it leaves the pick (or nil, once the outcome is
// written) for the driver loop and parks until some later pick resumes p.
//
// While Close unwinds the simulation, yield panics instead: on entry for a
// kernel operation in a deferred call, or on resuming a parked process.
func (p *Proc) yield(op, on string) {
	s := p.sim
	if s.closing {
		panic(errClosed)
	}
	p.waitOp, p.waitOn = op, on
	q := s.schedule()
	if q == p {
		return
	}
	s.pick = q
	p.w.park(struct{}{})
	if s.closing {
		panic(errClosed)
	}
}

// makeRunnable appends q to the run queue.
func (s *Sim) makeRunnable(q *Proc) { s.runq.push(q) }

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
	p.sleep = timer{at: s.now + d, seq: s.seq, p: p, queued: true}
	s.timers.push(&p.sleep)
	p.yield("sleep", "")
}

// Nap is a Sleep that Wake may cut short. It reports whether p slept the
// whole of d. Like Sleep, it reuses p's embedded timer and allocates
// nothing.
func (p *Proc) Nap(d time.Duration) bool {
	p.napping = true
	p.Sleep(d)
	full := p.napping
	p.napping = false
	return full
}

// Wake ends p's Nap now: p becomes runnable behind the processes already
// runnable, and its Nap reports false. Wake does nothing unless p is in a
// Nap whose timer has not fired, so a plain Sleep is never cut short and
// a second Wake is harmless. It may be called by another process or from a
// timer callback.
func (p *Proc) Wake() {
	if !p.napping || !p.sleep.queued {
		return
	}
	p.sim.timers.remove(&p.sleep)
	p.sleep.queued, p.napping = false, false
	p.sim.makeRunnable(p)
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
// its own, but inside the scheduling step that reaches the timer — on the
// stack of the process that blocked or exited, or of Run's caller in the
// first step. fn must not block; it
// may spawn processes, send on channels with waiting receivers, or adjust
// state. The timer comes from a free list, so a steady stream of After
// calls allocates nothing.
func (s *Sim) After(d time.Duration, fn func()) { s.callback(s.now+d, fn) }

// At schedules fn at absolute virtual time t (see After).
func (s *Sim) At(at time.Duration, fn func()) { s.callback(max(at, s.now), fn) }
