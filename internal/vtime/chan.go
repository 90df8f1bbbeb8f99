package vtime

import "time"

// Chan is a virtual-time-aware channel. Unlike native Go channels, blocking
// on a Chan suspends the process in the simulation kernel, allowing the
// clock to advance past the wait. Semantics mirror Go channels: a Chan has
// a fixed buffer capacity (possibly zero for rendezvous), Send blocks when
// the buffer is full, Recv blocks when it is empty, and Close wakes all
// blocked receivers with ok=false.
//
// Operations take the calling process's Proc handle; the kernel's
// one-process-at-a-time discipline means no internal locking is required.
type Chan[T any] struct {
	sim    *Sim
	cap    int
	buf    []T
	recvq  []*chanWaiter[T]
	sendq  []*chanWaiter[T]
	closed bool
	name   string
}

type chanWaiter[T any] struct {
	p       *Proc
	val     T    // for senders: the value being sent; for receivers: delivery slot
	ok      bool // delivery status for receivers
	done    bool // set when the waiter has been satisfied (vs. timed out)
	expired bool // set when a timed wait gave up
}

// NewChan creates a channel with the given buffer capacity.
func NewChan[T any](s *Sim, capacity int) *Chan[T] {
	return &Chan[T]{sim: s, cap: capacity}
}

// NewNamedChan creates a channel with a name that appears in deadlock reports.
func NewNamedChan[T any](s *Sim, capacity int, name string) *Chan[T] {
	return &Chan[T]{sim: s, cap: capacity, name: name}
}

// Len reports the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Cap reports the buffer capacity.
func (c *Chan[T]) Cap() int { return c.cap }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Send delivers v, blocking the calling process until a receiver or buffer
// slot is available. Sending on a closed channel panics, as with native
// channels.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.closed {
		panic("vtime: send on closed channel " + c.name)
	}
	// Direct hand-off to a waiting receiver.
	for len(c.recvq) > 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[1:]
		if w.expired {
			continue
		}
		w.val, w.ok, w.done = v, true, true
		c.sim.makeRunnable(w.p)
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	// Block until a receiver drains us.
	w := &chanWaiter[T]{p: p, val: v}
	c.sendq = append(c.sendq, w)
	p.yield("send ", c.name)
	if !w.done {
		panic("vtime: sender woken without completion on " + c.name)
	}
}

// TrySend delivers v without blocking; it reports whether the value was
// accepted (by a waiting receiver or free buffer slot).
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		panic("vtime: send on closed channel " + c.name)
	}
	for len(c.recvq) > 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[1:]
		if w.expired {
			continue
		}
		w.val, w.ok, w.done = v, true, true
		c.sim.makeRunnable(w.p)
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// Recv blocks the calling process until a value is available. The second
// result is false if the channel was closed and drained.
func (c *Chan[T]) Recv(p *Proc) (T, bool) {
	if v, ok, ready := c.tryRecvLocked(); ready {
		return v, ok
	}
	w := &chanWaiter[T]{p: p}
	c.recvq = append(c.recvq, w)
	p.yield("recv ", c.name)
	return w.val, w.ok
}

// TryRecv receives without blocking; the third result reports whether a
// value (or close notification) was ready.
func (c *Chan[T]) TryRecv() (T, bool, bool) {
	return c.tryRecvLocked()
}

func (c *Chan[T]) tryRecvLocked() (v T, ok bool, ready bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		copy(c.buf, c.buf[1:])
		c.buf = c.buf[:len(c.buf)-1]
		// A blocked sender can now use the freed slot.
		c.promoteSender()
		return v, true, true
	}
	// Rendezvous with a blocked sender (cap 0, or drained buffer).
	for len(c.sendq) > 0 {
		w := c.sendq[0]
		c.sendq = c.sendq[1:]
		if w.expired {
			continue
		}
		w.done = true
		c.sim.makeRunnable(w.p)
		return w.val, true, true
	}
	if c.closed {
		return v, false, true
	}
	return v, false, false
}

func (c *Chan[T]) promoteSender() {
	for len(c.sendq) > 0 && len(c.buf) < c.cap {
		w := c.sendq[0]
		c.sendq = c.sendq[1:]
		if w.expired {
			continue
		}
		c.buf = append(c.buf, w.val)
		w.done = true
		c.sim.makeRunnable(w.p)
	}
}

// RecvTimeout behaves like Recv but gives up after d, returning ready=false.
func (c *Chan[T]) RecvTimeout(p *Proc, d time.Duration) (v T, ok bool, ready bool) {
	if v, ok, ready := c.tryRecvLocked(); ready {
		return v, ok, true
	}
	if d <= 0 {
		return v, false, false
	}
	w := &chanWaiter[T]{p: p}
	c.recvq = append(c.recvq, w)
	// The timeout is a kernel callback, not a process wake-up: whichever of
	// {delivery, expiry} runs first claims the waiter, so the process is
	// woken exactly once.
	t := p.sim.addTimer(nil, p.sim.now+d, nil)
	t.fn = func() {
		if w.done || w.expired {
			return
		}
		w.expired = true
		p.sim.makeRunnable(p)
	}
	p.yield("recv-timeout ", c.name)
	if w.done {
		t.stopped = true
		return w.val, w.ok, true
	}
	return v, false, false
}

// Close closes the channel. Blocked receivers wake with ok=false. Closing a
// channel with blocked senders panics (as sending on a closed channel would).
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, w := range c.recvq {
		if w.expired {
			continue
		}
		w.done = true
		w.ok = false
		c.sim.makeRunnable(w.p)
	}
	c.recvq = nil
	if len(c.sendq) > 0 {
		panic("vtime: close of channel with blocked senders " + c.name)
	}
}

// Event is a broadcast synchronization point: processes Wait until another
// process (or timer callback) calls Set, which wakes all current and future
// waiters. Reset re-arms the event.
type Event struct {
	sim     *Sim
	set     bool
	waiters []*Proc
	name    string
}

// NewEvent creates an un-set event.
func NewEvent(s *Sim, name string) *Event {
	return &Event{sim: s, name: name}
}

// Set fires the event, waking all waiters.
func (e *Event) Set() {
	if e.set {
		return
	}
	e.set = true
	for _, p := range e.waiters {
		e.sim.makeRunnable(p)
	}
	e.waiters = nil
}

// Reset re-arms a fired event.
func (e *Event) Reset() { e.set = false }

// IsSet reports whether the event has fired.
func (e *Event) IsSet() bool { return e.set }

// Wait blocks the calling process until the event fires (returns
// immediately if it already has).
func (e *Event) Wait(p *Proc) {
	if e.set {
		return
	}
	e.waiters = append(e.waiters, p)
	p.yield("event ", e.name)
}

// WaitGroup counts outstanding work items in virtual time.
type WaitGroup struct {
	sim     *Sim
	n       int
	waiters []*Proc
}

// NewWaitGroup creates an empty wait group.
func NewWaitGroup(s *Sim) *WaitGroup { return &WaitGroup{sim: s} }

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("vtime: negative WaitGroup counter")
	}
	if wg.n == 0 {
		for _, p := range wg.waiters {
			wg.sim.makeRunnable(p)
		}
		wg.waiters = nil
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks the calling process until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.n == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.yield("waitgroup", "")
}
