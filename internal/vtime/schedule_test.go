package vtime

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

// The schedule is pinned, not assumed: a seeded generator writes random
// process programs over every kernel primitive — nested Spawn, Sleep
// (including 0) and SleepUntil, buffered and unbuffered Send/Recv,
// TrySend/TryRecv, RecvTimeout with and without expiry, Close, Event
// Set/Reset/Wait, WaitGroup, After/At callbacks and their cancel by
// handle, Stop, and RunUntil horizons followed by Run — and records every
// operation as a (now, proc id, op) line. The sha256 of each seed's trace
// is committed in testdata/schedule.sha256; a kernel change that moves
// run-queue order, timer (at, seq) ties, callback placement, Stop,
// deadlock detection or a horizon moves a hash.

const (
	scheduleSeeds = 128
	scheduleFile  = "testdata/schedule.sha256"
)

// waitGroup counts outstanding work items in virtual time: the random
// programs wait for the processes they spawn with it.
type waitGroup struct {
	sim     *Sim
	n       int
	waiters []*Proc
}

// newWaitGroup creates an empty wait group.
func newWaitGroup(s *Sim) *waitGroup { return &waitGroup{sim: s} }

// Add increments the counter by delta.
func (wg *waitGroup) Add(delta int) {
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
func (wg *waitGroup) Done() { wg.Add(-1) }

// Wait blocks the calling process until the counter reaches zero.
func (wg *waitGroup) Wait(p *Proc) {
	if wg.n == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.yield("waitgroup", "")
}

type schedWorld struct {
	s       *Sim
	rng     *rand.Rand
	trace   strings.Builder
	lines   int
	budget  int // operations left across all processes
	procs   int // processes spawned so far
	stop    bool
	chans   []*Chan[int]
	evs     []*Event
	cancels []timerHandle
	sent    int
	seen    map[string]bool // op kinds exercised, for the coverage check
}

func (w *schedWorld) log(id int64, kind, format string, args ...any) {
	w.seen[kind] = true
	fmt.Fprintf(&w.trace, "%d %d %s ", w.s.Now(), id, kind)
	fmt.Fprintf(&w.trace, format, args...)
	w.trace.WriteByte('\n')
	w.lines++
}

func (w *schedWorld) pick(ds ...time.Duration) time.Duration { return ds[w.rng.Intn(len(ds))] }

func (w *schedWorld) spawn(parent *Proc, kids *waitGroup) {
	w.procs++
	name := fmt.Sprintf("p%d", w.procs)
	body := func(p *Proc) {
		if kids != nil {
			defer kids.Done()
		}
		w.program(p)
	}
	if kids != nil {
		kids.Add(1)
	}
	if parent != nil {
		parent.Spawn(name, body)
	} else {
		w.s.Spawn(name, body)
	}
}

// callback is the body of every After/At timer: one non-blocking action.
func (w *schedWorld) callback(k int) {
	c := w.chans[w.rng.Intn(len(w.chans))]
	switch w.rng.Intn(5) {
	case 0:
		if !c.Closed() {
			w.sent++
			w.log(0, "cb-trysend", "%d %d %v", k, w.sent, c.TrySend(w.sent))
			return
		}
	case 1:
		v, ok, ready := c.TryRecv()
		w.log(0, "cb-tryrecv", "%d %d %v %v", k, v, ok, ready)
		return
	case 2:
		e := w.evs[w.rng.Intn(len(w.evs))]
		e.Set()
		w.log(0, "cb-set", "%d %s", k, e.name)
		return
	case 3:
		if w.procs < 12 && w.budget > 0 {
			w.spawn(nil, nil)
			w.log(0, "cb-spawn", "%d %d", k, w.procs)
			return
		}
	case 4:
		if w.stop && w.rng.Intn(6) == 0 {
			w.s.Stop()
			w.log(0, "cb-stop", "%d", k)
			return
		}
	}
	w.log(0, "cb", "%d", k)
}

func (w *schedWorld) program(p *Proc) {
	id := p.ID()
	kids := newWaitGroup(w.s)
	for n := 4 + w.rng.Intn(24); n > 0 && w.budget > 0; n-- {
		w.budget--
		c := w.chans[w.rng.Intn(len(w.chans))]
		e := w.evs[w.rng.Intn(len(w.evs))]
		switch op := w.rng.Intn(20); op {
		case 0, 1:
			p.Sleep(w.pick(0, 0, time.Millisecond, time.Millisecond, 2*time.Millisecond, 3*time.Millisecond))
			w.log(id, "sleep", "")
		case 2:
			p.SleepUntil(p.Now() + w.pick(-time.Millisecond, 0, time.Millisecond, 2*time.Millisecond))
			w.log(id, "sleepuntil", "")
		case 3, 4:
			if c.Closed() {
				w.log(id, "send-closed", "%s", c.name)
				continue
			}
			w.sent++
			v := w.sent
			c.Send(p, v)
			w.log(id, "send", "%s %d", c.name, v)
		case 5, 6:
			v, ok := c.Recv(p)
			w.log(id, "recv", "%s %d %v", c.name, v, ok)
		case 7:
			if c.Closed() {
				continue
			}
			w.sent++
			w.log(id, "trysend", "%s %d %v", c.name, w.sent, c.TrySend(w.sent))
		case 8:
			v, ok, ready := c.TryRecv()
			w.log(id, "tryrecv", "%s %d %v %v", c.name, v, ok, ready)
		case 9, 10:
			d := w.pick(0, time.Millisecond, 2*time.Millisecond, 5*time.Millisecond)
			v, ok, ready := c.RecvTimeout(p, d)
			kind := "recvtimeout-expired"
			if ready {
				kind = "recvtimeout-ready"
			}
			w.log(id, kind, "%s %d %d %v", c.name, d, v, ok)
		case 11:
			if !c.Closed() && c.sendq.len() == 0 && w.rng.Intn(3) == 0 {
				c.Close()
				w.log(id, "close", "%s", c.name)
			}
		case 12:
			e.Set()
			w.log(id, "set", "%s", e.name)
		case 13:
			e.Reset()
			w.log(id, "reset", "%s", e.name)
		case 14:
			e.Wait(p)
			w.log(id, "wait", "%s", e.name)
		case 15:
			if w.procs < 12 {
				w.spawn(p, kids)
				w.log(id, "spawn", "%d", w.procs)
			}
		case 16:
			kids.Wait(p)
			w.log(id, "waitkids", "")
		case 17:
			k := len(w.cancels)
			// After and At arm their timer through callback, which alone
			// returns the handle a cancel needs.
			var at time.Duration
			if w.rng.Intn(2) == 0 { // After
				at = p.Now() + w.pick(0, time.Millisecond, 2*time.Millisecond)
			} else { // At, which clamps to now
				at = max(p.Now()+w.pick(-time.Millisecond, 0, time.Millisecond, 3*time.Millisecond), p.Now())
			}
			w.cancels = append(w.cancels, w.s.callback(at, func() { w.callback(k) }))
			w.log(id, "after", "%d", k)
		case 18:
			if len(w.cancels) > 0 {
				k := w.rng.Intn(len(w.cancels))
				w.cancels[k].Stop()
				w.log(id, "cancel", "%d", k)
			}
		case 19:
			if w.stop && w.rng.Intn(8) == 0 {
				w.s.Stop()
				w.log(id, "stop", "")
				p.Sleep(time.Millisecond)
			}
		}
	}
	w.log(id, "exit", "")
}

// scheduleTrace runs one seeded world and returns its trace.
func scheduleTrace(seed int64) (*schedWorld, string) {
	s := NewSim()
	w := &schedWorld{s: s, rng: rand.New(rand.NewSource(seed)), budget: 150 + int(seed%7)*40, stop: seed%5 == 0, seen: map[string]bool{}}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("c%d", i)
		if i == 3 {
			name = "" // unnamed channels still show up in deadlock reports
		}
		w.chans = append(w.chans, NewNamedChan[int](s, i%3, name))
	}
	w.evs = []*Event{NewEvent(s, "e0"), NewEvent(s, "e1")}
	// A janitor callback keeps values and events flowing for a while, so
	// blocked programs get unblocked before the world runs dry.
	ticks := 0
	var janitor func()
	janitor = func() {
		ticks++
		w.callback(-ticks)
		if ticks < 40 {
			s.After(w.pick(time.Millisecond, 2*time.Millisecond), janitor)
		}
	}
	s.After(time.Millisecond, janitor)
	for n := 2 + w.rng.Intn(4); n > 0; n-- {
		w.spawn(nil, nil)
	}
	var horizons []time.Duration
	switch seed % 4 {
	case 1:
		horizons = []time.Duration{time.Duration(w.rng.Intn(20)) * time.Millisecond}
	case 2:
		horizons = []time.Duration{0, time.Duration(5+w.rng.Intn(20)) * time.Millisecond}
	case 3:
		horizons = []time.Duration{3 * time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond}
	}
	for _, h := range horizons {
		err := s.RunUntil(h)
		w.log(-1, "rununtil", "%d %v", h, err)
	}
	err := s.Run()
	w.log(-1, "run", "%v", err)
	err = s.Run() // a second Run after the outcome must not move anything
	w.log(-1, "run", "%v", err)
	return w, w.trace.String()
}

// scheduleHashes traces every seed and returns one "seed lines sha256"
// line per seed, the op kinds exercised, and the outcomes Run ended with.
// A kernel that loses track of whose turn it is hangs instead of failing,
// so each world runs under a wall-clock watchdog.
func scheduleHashes(t *testing.T) (string, map[string]bool, map[string]bool) {
	var b strings.Builder
	seen, outcomes := map[string]bool{}, map[string]bool{}
	for seed := int64(1); seed <= scheduleSeeds; seed++ {
		type result struct {
			w  *schedWorld
			tr string
		}
		ch := make(chan result, 1)
		go func() {
			w, tr := scheduleTrace(seed)
			ch <- result{w, tr}
		}()
		var w *schedWorld
		var tr string
		select {
		case r := <-ch:
			w, tr = r.w, r.tr
		case <-time.After(time.Minute):
			t.Fatalf("seed %d: the kernel hung", seed)
		}
		for k := range w.seen {
			seen[k] = true
		}
		last := tr[strings.LastIndex(tr[:len(tr)-1], "\n")+1:]
		switch {
		case strings.Contains(last, "deadlock"):
			outcomes["deadlock"] = true
		case strings.Contains(last, "stopped"):
			outcomes["stopped"] = true
		case strings.HasSuffix(last, "<nil>\n"):
			outcomes["nil"] = true
		}
		fmt.Fprintf(&b, "%d %d %x\n", seed, w.lines, sha256.Sum256([]byte(tr)))
	}
	return b.String(), seen, outcomes
}

func TestSchedulePinned(t *testing.T) {
	got, seen, outcomes := scheduleHashes(t)
	// The generator itself must keep exercising every primitive and every
	// way Run ends, or a pinned hash would pin less than it claims.
	for _, k := range []string{"sleep", "sleepuntil", "send", "recv", "send-closed", "trysend", "tryrecv",
		"recvtimeout-expired", "recvtimeout-ready", "close", "set", "reset", "wait", "spawn", "waitkids",
		"after", "cancel", "stop", "cb-trysend", "cb-tryrecv", "cb-set", "cb-spawn", "cb-stop", "rununtil", "run"} {
		if !seen[k] {
			t.Errorf("no seed exercised %q", k)
		}
	}
	if len(outcomes) != 3 {
		t.Errorf("Run outcomes covered: %v, want nil, deadlock and stopped", outcomes)
	}

	f, err := os.Open(scheduleFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(gotLines) != len(want) {
		t.Fatalf("%d seeds traced, %s pins %d", len(gotLines), scheduleFile, len(want))
	}
	for i := range want {
		if gotLines[i] != want[i] {
			t.Errorf("schedule moved: got %q, pinned %q", gotLines[i], want[i])
		}
	}
}
