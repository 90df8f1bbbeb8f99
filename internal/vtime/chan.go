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
	buf    queue[T]
	recvq  queue[*chanWaiter[T]]
	sendq  queue[*chanWaiter[T]]
	free   []*chanWaiter[T] // waiters of finished waits, reused by the next one
	closed bool
	name   string
}

// chanWaiter is one blocked Send, Recv or RecvTimeout. The channel
// recycles it once the blocked process has read it.
type chanWaiter[T any] struct {
	p      *Proc
	val    T      // for senders: the value being sent; for receivers: delivery slot
	ok     bool   // delivery status for receivers
	done   bool   // set when a sender, receiver or Close claimed the waiter
	expire func() // RecvTimeout's expiry, bound to this waiter once
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
func (c *Chan[T]) Len() int { return c.buf.len() }

// Cap reports the buffer capacity.
func (c *Chan[T]) Cap() int { return c.cap }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// waiter returns a recycled waiter for p, or a new one.
func (c *Chan[T]) waiter(p *Proc) *chanWaiter[T] {
	if n := len(c.free); n > 0 {
		w := c.free[n-1]
		c.free = c.free[:n-1]
		w.p = p
		return w
	}
	return &chanWaiter[T]{p: p}
}

// release recycles w once its process has read it.
func (c *Chan[T]) release(w *chanWaiter[T]) {
	var zero T
	w.p, w.val, w.ok, w.done = nil, zero, false, false
	c.free = append(c.free, w)
}

// Send delivers v, blocking the calling process until a receiver or buffer
// slot is available. Sending on a closed channel panics, as with native
// channels.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.TrySend(v) {
		return
	}
	// Block until a receiver drains us.
	w := c.waiter(p)
	w.val = v
	c.sendq.push(w)
	p.yield("send ", c.name)
	if !w.done {
		panic("vtime: sender woken without completion on " + c.name)
	}
	c.release(w)
}

// TrySend delivers v without blocking; it reports whether the value was
// accepted (by a waiting receiver or free buffer slot).
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		panic("vtime: send on closed channel " + c.name)
	}
	// Direct hand-off to a waiting receiver.
	if c.recvq.len() > 0 {
		w := c.recvq.pop()
		w.val, w.ok, w.done = v, true, true
		c.sim.makeRunnable(w.p)
		return true
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		return true
	}
	return false
}

// Recv blocks the calling process until a value is available. The second
// result is false if the channel was closed and drained.
func (c *Chan[T]) Recv(p *Proc) (T, bool) {
	if v, ok, ready := c.TryRecv(); ready {
		return v, ok
	}
	w := c.waiter(p)
	c.recvq.push(w)
	p.yield("recv ", c.name)
	v, ok := w.val, w.ok
	c.release(w)
	return v, ok
}

// TryRecv receives without blocking; the third result reports whether a
// value (or close notification) was ready.
func (c *Chan[T]) TryRecv() (v T, ok bool, ready bool) {
	if c.buf.len() > 0 {
		v = c.buf.pop()
		// A blocked sender can now use the freed slot.
		c.promoteSender()
		return v, true, true
	}
	// Rendezvous with a blocked sender (cap 0, or drained buffer).
	if c.sendq.len() > 0 {
		w := c.sendq.pop()
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
	for c.sendq.len() > 0 && c.buf.len() < c.cap {
		w := c.sendq.pop()
		c.buf.push(w.val)
		w.done = true
		c.sim.makeRunnable(w.p)
	}
}

// RecvTimeout behaves like Recv but gives up after d, returning ready=false.
func (c *Chan[T]) RecvTimeout(p *Proc, d time.Duration) (v T, ok bool, ready bool) {
	if v, ok, ready := c.TryRecv(); ready {
		return v, ok, true
	}
	if d <= 0 {
		return v, false, false
	}
	w := c.waiter(p)
	if w.expire == nil {
		w.expire = func() { c.expire(w) }
	}
	c.recvq.push(w)
	// The timeout is a kernel callback, not a process wake-up: whichever of
	// {delivery, expiry} runs first claims the waiter, so the process is
	// woken exactly once. A delivery stops the timer through its handle;
	// an expiry that runs first takes the waiter off recvq.
	t := p.sim.callback(p.sim.now+d, w.expire)
	p.yield("recv-timeout ", c.name)
	if w.done {
		t.Stop()
		v, ok, ready = w.val, w.ok, true
	}
	c.release(w)
	return v, ok, ready
}

// expire ends a timed receive that nothing claimed first: it takes w off
// recvq and wakes its process. A claimed waiter is left alone — a delivery
// in the expiry's own timer batch runs before the process can stop it.
func (c *Chan[T]) expire(w *chanWaiter[T]) {
	if w.done {
		return
	}
	for i, x := range c.recvq.items[c.recvq.head:] {
		if x == w {
			c.recvq.delete(i)
			break
		}
	}
	c.sim.makeRunnable(w.p)
}

// Close closes the channel. Blocked receivers wake with ok=false. Closing a
// channel with blocked senders panics (as sending on a closed channel would).
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for c.recvq.len() > 0 {
		w := c.recvq.pop()
		w.done, w.ok = true, false
		c.sim.makeRunnable(w.p)
	}
	if c.sendq.len() > 0 {
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
