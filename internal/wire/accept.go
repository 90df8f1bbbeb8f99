package wire

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Acceptor is the accept side of one component (an avis server, an edge
// proxy, the cluster coordinator): it runs the accept loops of every
// listener handed to Serve, tracks the live connections, and drains them
// on Shutdown. The zero value is ready to use.
type Acceptor struct {
	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
	active    atomic.Int64 // len(conns), readable without mu
}

// Serve accepts connections on l until it closes, running handle for each
// in its own goroutine; the connection is closed when handle returns. The
// Conn handed to handle arms timeout as its progress deadline, counts
// into inst, and answers a peer's handshake probe by itself, so handle
// only ever reads application messages. After Shutdown, Serve returns
// net.ErrClosed.
func (a *Acceptor) Serve(l net.Listener, timeout time.Duration, inst Instruments, handle func(*Conn)) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return net.ErrClosed
	}
	if a.conns == nil {
		a.conns = make(map[net.Conn]struct{})
	}
	a.listeners = append(a.listeners, l)
	a.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			nc.Close()
			return net.ErrClosed
		}
		a.conns[nc] = struct{}{}
		a.active.Add(1)
		a.wg.Add(1)
		a.mu.Unlock()
		go func() {
			defer func() {
				nc.Close()
				a.mu.Lock()
				delete(a.conns, nc)
				a.mu.Unlock()
				a.active.Add(-1)
				a.wg.Done()
			}()
			c := NewConn(nc, timeout)
			c.inst = inst
			c.accepted = true
			handle(c)
		}()
	}
}

// Active reports the number of connections currently being served.
func (a *Acceptor) Active() int { return int(a.active.Load()) }

// Shutdown closes every listener passed to Serve, waits up to drain for
// the in-flight connections to finish, force-closes the stragglers, and
// returns once every handler has unwound. It reports how many connections
// had to be force-closed; a zero drain window closes them all at once.
func (a *Acceptor) Shutdown(drain time.Duration) int {
	a.mu.Lock()
	a.closed = true
	for _, l := range a.listeners {
		_ = l.Close()
	}
	a.listeners = nil
	a.mu.Unlock()

	done := make(chan struct{})
	go func() {
		a.wg.Wait()
		close(done)
	}()
	forced := 0
	select {
	case <-done:
	case <-time.After(drain):
		a.mu.Lock()
		forced = len(a.conns)
		for nc := range a.conns {
			_ = nc.Close()
		}
		a.mu.Unlock()
		<-done
	}
	return forced
}
