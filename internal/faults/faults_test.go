package faults

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"tunable/internal/metrics"
)

// fakeClock is an injectable elapsed-time source for Injector tests: fault
// state becomes a pure function of the value set here.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (f *fakeClock) now() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) set(d time.Duration) {
	f.mu.Lock()
	f.t = d
	f.mu.Unlock()
}

func TestGenerateDeterministic(t *testing.T) {
	prof := GenProfile{Drops: 2, Latencies: 2, Dips: 1, Resets: 1, Partitions: 1, Pauses: 1}
	targets := []string{"data:node-a", "data:node-b", "ctrl:"}
	a := Generate(42, 10*time.Second, targets, prof)
	b := Generate(42, 10*time.Second, targets, prof)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%s\n%s", a, b)
	}
	c := Generate(43, 10*time.Second, targets, prof)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatalf("different seeds produced identical schedules: %s", c)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if n := len(a.Events); n != prof.Drops+prof.Latencies+prof.Dips+prof.Resets+prof.Partitions+prof.Pauses {
		t.Fatalf("generated %d events, want %d", n, 8)
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []Schedule{
		NewSchedule(1, Event{At: -time.Second, Kind: Drop, Rate: 0.1}),
		NewSchedule(1, Event{Kind: Drop, Rate: 1.5}),
		NewSchedule(1, Event{Kind: Bandwidth, Rate: 0}),
		NewSchedule(1, Event{Kind: Kind("meteor")}),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %d validated but should not: %s", i, s)
		}
	}
	ok := NewSchedule(1,
		Event{At: time.Second, Duration: time.Second, Kind: Drop, Rate: 0.5},
		Event{Kind: Reset, Target: "ctrl:"},
	)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if ok.Events[0].Kind != Reset {
		t.Fatalf("NewSchedule did not sort by At: %s", ok)
	}
}

func TestScheduleHorizonAndMatching(t *testing.T) {
	s := NewSchedule(1,
		Event{At: time.Second, Duration: 2 * time.Second, Kind: Drop, Target: "node-b", Rate: 0.1},
		Event{At: 500 * time.Millisecond, Duration: time.Second, Kind: Pause},
	)
	if h := s.Horizon(); h != 3*time.Second {
		t.Fatalf("horizon %v, want 3s", h)
	}
	e := s.Events[1] // the node-b drop after sorting
	if !e.Matches("data:node-b") || e.Matches("data:node-a") {
		t.Fatalf("target matching wrong for %s", e)
	}
	if !s.Events[0].Matches("anything") {
		t.Fatal("empty target should match everything")
	}
	if e.ActiveAt(999*time.Millisecond) || !e.ActiveAt(time.Second) || e.ActiveAt(3*time.Second) {
		t.Fatalf("window arithmetic wrong for %s", e)
	}
}

// pipePair wires a faultConn over one end of a net.Pipe.
func pipePair(t *testing.T, in *Injector, label string) (wrapped net.Conn, peer net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return in.Conn(label, a), b
}

func TestInjectorDropBlackholesConn(t *testing.T) {
	clk := &fakeClock{}
	sched := NewSchedule(7, Event{Duration: time.Minute, Kind: Drop, Target: "data:", Rate: 1})
	reg := metrics.New()
	in, err := New(sched)
	if err != nil {
		t.Fatal(err)
	}
	in.now = clk.now
	in.EnableMetrics(reg)
	clk.set(time.Second) // inside the drop window

	conn, peer := pipePair(t, in, "data:node-a")
	go peer.Write([]byte("hello"))

	if err := conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err = conn.Read(make([]byte, 16))
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("read error %v, want *faults.Error", err)
	}
	if !fe.Timeout() {
		t.Fatalf("blackhole stall should be a timeout, got %+v", fe)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("fault error must satisfy net.Error with Timeout()=true: %v", err)
	}
	log := in.Log()
	if len(log) == 0 || log[0].Kind != Drop {
		t.Fatalf("fault log %v, want a drop entry", log)
	}
	// Writes into a black-holed conn are swallowed, not errors.
	if n, err := conn.Write([]byte("x")); n != 1 || err != nil {
		t.Fatalf("write into blackhole: n=%d err=%v", n, err)
	}
}

func TestInjectorLatencyDelaysRead(t *testing.T) {
	clk := &fakeClock{}
	sched := NewSchedule(7, Event{Duration: time.Minute, Kind: Latency, Delay: 30 * time.Millisecond})
	in, err := New(sched)
	if err != nil {
		t.Fatal(err)
	}
	in.now = clk.now
	clk.set(time.Second)

	conn, peer := pipePair(t, in, "data:node-a")
	go peer.Write([]byte("hi"))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 30*time.Millisecond {
		t.Fatalf("read took %v, want ≥ 30ms injected latency", took)
	}
}

func TestInjectorDialRefusedDuringPartition(t *testing.T) {
	clk := &fakeClock{}
	sched := NewSchedule(7, Event{Duration: time.Minute, Kind: Partition, Target: "ctrl:node-b"})
	in, err := New(sched)
	if err != nil {
		t.Fatal(err)
	}
	in.now = clk.now
	clk.set(time.Second)

	if !in.Partitioned("ctrl:node-b") {
		t.Fatal("ctrl:node-b should be partitioned")
	}
	if in.Partitioned("ctrl:node-a") {
		t.Fatal("partition leaked to an unmatched label")
	}
	_, err = in.Dial("ctrl:node-b", "tcp", "127.0.0.1:1", 50*time.Millisecond)
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != Partition || !fe.Timeout() {
		t.Fatalf("partitioned dial returned %v, want partition timeout", err)
	}
	if log := in.Log(); len(log) != 1 || log[0].Kind != Partition {
		t.Fatalf("fault log %v, want one partition entry", log)
	}
}

func TestInjectorResetClosesConn(t *testing.T) {
	clk := &fakeClock{}
	sched := NewSchedule(7, Event{At: 10 * time.Millisecond, Kind: Reset, Target: "data:"})
	in, err := New(sched)
	if err != nil {
		t.Fatal(err)
	}
	in.now = clk.now
	conn, _ := pipePair(t, in, "data:node-a") // opened at elapsed 0
	clk.set(20 * time.Millisecond)            // reset instant has passed

	_, err = conn.Read(make([]byte, 4))
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != Reset {
		t.Fatalf("read after reset returned %v, want reset fault", err)
	}
	if fe.Timeout() {
		t.Fatal("a reset is a dead connection, not a timeout")
	}
	// The reset fires once; afterwards the conn behaves closed.
	if _, err := conn.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after reset returned %v, want net.ErrClosed", err)
	}
}

func TestInjectorPauseReleases(t *testing.T) {
	clk := &fakeClock{}
	sched := NewSchedule(7, Event{Duration: 50 * time.Millisecond, Kind: Pause})
	in, err := New(sched)
	if err != nil {
		t.Fatal(err)
	}
	in.now = clk.now
	clk.set(time.Millisecond) // inside the pause window
	conn, peer := pipePair(t, in, "data:node-a")
	go peer.Write([]byte("later"))
	// Release the pause shortly after the read begins stalling.
	go func() {
		time.Sleep(20 * time.Millisecond)
		clk.set(time.Second) // past the window
	}()
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 16))
	if err != nil || n == 0 {
		t.Fatalf("read after pause release: n=%d err=%v, want delivery", n, err)
	}
}

func TestInjectorSameSeedSameFaultSequence(t *testing.T) {
	run := func() (reads int, log []Injected) {
		clk := &fakeClock{}
		sched := NewSchedule(99, Event{Duration: time.Minute, Kind: Drop, Target: "data:", Rate: 0.3})
		in, err := New(sched)
		if err != nil {
			t.Fatal(err)
		}
		in.now = clk.now
		clk.set(time.Second)
		conn, peer := pipePair(t, in, "data:node-a")
		go func() {
			for {
				if _, err := peer.Write([]byte("m")); err != nil {
					return
				}
			}
		}()
		for {
			if err := conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Read(make([]byte, 4)); err != nil {
				break // black-holed: the drop stream decided
			}
			reads++
			if reads > 10000 {
				t.Fatal("drop with rate 0.3 never hit")
			}
		}
		conn.Close()
		return reads, in.Log()
	}
	r1, l1 := run()
	r2, l2 := run()
	if r1 != r2 {
		t.Fatalf("same seed delivered %d then %d messages before the drop", r1, r2)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("same seed produced different fault logs:\n%v\n%v", l1, l2)
	}
}

func TestInjectorInertBeforeStart(t *testing.T) {
	sched := NewSchedule(7, Event{Duration: time.Minute, Kind: Drop, Rate: 1})
	in, err := New(sched)
	if err != nil {
		t.Fatal(err)
	}
	// No Start, no injected clock: every window is closed.
	conn, peer := pipePair(t, in, "data:node-a")
	go peer.Write([]byte("clean"))
	n, err := conn.Read(make([]byte, 16))
	if err != nil || n != 5 {
		t.Fatalf("pre-start read: n=%d err=%v, want clean delivery", n, err)
	}
	if in.Partitioned("anything") {
		t.Fatal("nothing is partitioned before Start")
	}
}

func TestInjectorRejectsInvalidSchedule(t *testing.T) {
	if _, err := New(NewSchedule(1, Event{Kind: Drop, Rate: 2})); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}
