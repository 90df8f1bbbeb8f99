// Package sandbox implements the paper's virtual execution environment
// (Section 5.1): a resource-constrained sandbox that guarantees an
// application an average CPU share and — in combination with package
// netem — network bandwidth, over short metering periods. Memory is a
// reservation only: NewSandbox admits a sandbox's limit against the
// host's physical memory, but nothing pages or faults at run time, since
// the paper's experiments (§7) constrain only CPU and bandwidth.
//
// The paper realizes the sandbox with Win32 API interception and dynamic
// priority manipulation "every few milliseconds"; here the same contract is
// met by metering virtual time: an application expresses processor demand
// in cycles, and the sandbox converts cycles to virtual time at
// hostSpeed × share, one Quantum at a time, so dynamic reconfiguration
// takes effect within one quantum, exactly as the paper's priority
// adjustments do. The quanta are metered, not slept: Compute plans a
// computation's quanta when it starts and wakes its process once, when
// the computation ends (or once per chunk of a very long one). Each
// quantum draws its scheduling jitter from the sandbox's own stream, so
// neighbours on the host do not perturb each other's timing. SetCPUShare
// wakes a computing sandbox, which re-plans from the next quantum
// boundary, and the usage counters step at quantum boundaries as they
// would if the process woke at each. The sandbox doubles as the profiling
// testbed and as the run-time policing mechanism (Section 6.2), as in the
// paper.
package sandbox

import (
	"fmt"
	"time"

	"tunable/internal/prng"
	"tunable/internal/vtime"
)

// Quantum is the metering period: the sandbox recomputes effective rates
// and accounts usage at this granularity (the paper adjusts priorities
// "every few milliseconds").
const Quantum = 10 * time.Millisecond

// MaxReservable caps the total CPU share a host will admit. Applications
// may ask for the whole machine, but non-controllable OS activity (daemons
// etc., footnote 2 of the paper) still claims its fraction at run time via
// the host's OS load.
const MaxReservable = 1.0

// Host models a physical machine: a processor with a given speed (cycles
// per second of virtual time) plus a small amount of background OS load
// that perturbs applications asking for a full share.
type Host struct {
	sim      *vtime.Sim
	name     string
	speed    float64 // cycles per second
	osLoad   float64 // fraction of CPU consumed by uncontrollable OS activity
	memTotal int64   // bytes of physical memory
	reserved float64
	memResv  int64
	boxes    map[string]*Sandbox
}

// HostOption customizes host construction.
type HostOption func(*Host)

// WithOSLoad sets the background OS activity fraction (default 0.03).
func WithOSLoad(f float64) HostOption { return func(h *Host) { h.osLoad = f } }

// WithMemory sets total physical memory in bytes (default 128 MiB, the
// machines in the paper).
func WithMemory(b int64) HostOption { return func(h *Host) { h.memTotal = b } }

// NewHost creates a host with the given processor speed in cycles/second.
// The paper's machines map to speeds 450e6, 333e6, and 200e6.
func NewHost(sim *vtime.Sim, name string, speedHz float64, opts ...HostOption) *Host {
	h := &Host{
		sim:      sim,
		name:     name,
		speed:    speedHz,
		osLoad:   0.03,
		memTotal: 128 << 20,
		boxes:    make(map[string]*Sandbox),
	}
	for _, o := range opts {
		o(h)
	}
	return h
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Speed returns the processor speed in cycles per second.
func (h *Host) Speed() float64 { return h.speed }

// Reserved returns the total CPU share currently reserved by sandboxes.
func (h *Host) Reserved() float64 { return h.reserved }

// NewSandbox creates a resource-constrained execution environment on the
// host with the given CPU share (0 < share ≤ 1) and memory limit in bytes
// (0 means "no explicit limit": the host's full memory). It performs the
// simple admission control of Section 6.2: the request is rejected if the
// aggregate reserved share would exceed MaxReservable or memory would be
// oversubscribed.
func (h *Host) NewSandbox(name string, share float64, memLimit int64) (*Sandbox, error) {
	if !(share > 0 && share <= 1) { // also refuses NaN, which fails every comparison
		return nil, fmt.Errorf("sandbox: invalid CPU share %g for %q", share, name)
	}
	if _, dup := h.boxes[name]; dup {
		return nil, fmt.Errorf("sandbox: duplicate sandbox %q on host %s", name, h.name)
	}
	if h.reserved+share > MaxReservable+1e-9 {
		return nil, fmt.Errorf("sandbox: host %s cannot admit share %.2f (%.2f of %.2f already reserved)",
			h.name, share, h.reserved, MaxReservable)
	}
	memExplicit := memLimit > 0
	if !memExplicit {
		memLimit = h.memTotal
	}
	if memExplicit && memLimit > h.memTotal-h.memResv { // the sum could wrap
		return nil, fmt.Errorf("sandbox: host %s cannot admit %d bytes (%d of %d reserved)",
			h.name, memLimit, h.memResv, h.memTotal)
	}
	sb := &Sandbox{
		host:        h,
		name:        name,
		share:       share,
		memLimit:    memLimit,
		memExplicit: memExplicit,
		acct:        meter{rng: *prng.New(prng.Hash(h.name + "/" + name))},
	}
	h.reserved += share
	if memExplicit {
		h.memResv += memLimit
	}
	h.boxes[name] = sb
	return sb, nil
}

// Release removes a sandbox from the host, freeing its reservation.
func (h *Host) Release(sb *Sandbox) {
	if h.boxes[sb.name] != sb {
		return
	}
	delete(h.boxes, sb.name)
	h.reserved -= sb.share
	if sb.memExplicit {
		h.memResv -= sb.memLimit
	}
}

// Sandbox is a resource-constrained execution environment for one
// application component. All methods must be called from simulation
// process context, and one process at a time may Compute in a sandbox.
type Sandbox struct {
	host        *Host
	name        string
	share       float64
	memLimit    int64
	memExplicit bool

	// acct is the usage accounting the monitoring agent reads, as of the
	// end of run while a computation is under way: a read then replays
	// run's quanta that have ended from run.from.
	acct meter
	run  chunk
}

// meter is a sandbox's usage accounting and the jitter stream its quanta
// draw from, one draw per quantum.
type meter struct {
	rng    prng.Splitmix
	cpu    time.Duration // CPU-seconds actually received (scaled by share)
	active time.Duration // virtual time spent inside Compute
}

// maxChunk bounds the quanta Compute sleeps through in one go, and so the
// quanta a usage read replays.
const maxChunk = 64

// chunk is the stretch of a computation that Compute sleeps through in one
// go: quanta laid end to end from start, each one Quantum long but the
// computation's last.
type chunk struct {
	busy       bool        // a computation is under way
	proc       *vtime.Proc // the process that computes, or last computed
	start, end time.Duration
	from       meter // the accounting at start
	// The cycles left at start, and the share the first quantum runs at and
	// the rest's: a quantum under way when the share changes finishes at
	// the share it started with. A read during a one-quantum chunk replays
	// no quanta, so only a longer chunk records them.
	cycles, first, rest float64
}

// advance meters up to limit quanta into m of a computation with cycles
// left, the first at share first and the rest at share rest, stopping
// early when the cycles run out. Each quantum draws its jitter and lasts a
// full Quantum or, for the computation's last, as long as the cycles left
// take. It returns the cycles left and the quanta metered.
func (h *Host) advance(m *meter, cycles, first, rest float64, limit int) (float64, int) {
	rng, cpu, active := m.rng, m.cpu, m.active
	n, share := 0, first
	for ; n < limit && cycles > 1e-9; n++ {
		rate := h.rate(share, &rng)
		if rate <= 0 {
			panic("sandbox: zero effective rate")
		}
		quantumCycles := rate * Quantum.Seconds()
		dt, used := Quantum, quantumCycles
		if cycles < quantumCycles {
			dt = time.Duration(cycles / rate * float64(time.Second))
			if dt <= 0 {
				dt = time.Nanosecond
			}
			used = cycles
		}
		cycles -= used
		active += dt
		// CPU-seconds received = cycles consumed at full machine speed.
		cpu += time.Duration(used / h.speed * float64(time.Second))
		share = rest
	}
	m.rng, m.cpu, m.active = rng, cpu, active
	return cycles, n
}

// Name returns the sandbox name.
func (sb *Sandbox) Name() string { return sb.name }

// Host returns the host the sandbox runs on.
func (sb *Sandbox) Host() *Host { return sb.host }

// CPUShare returns the currently configured share.
func (sb *Sandbox) CPUShare() float64 { return sb.share }

// SetCPUShare reconfigures the share; it takes effect from the next
// quantum boundary, mirroring the dynamic testbed reconfiguration used in
// Figure 3(a): a computation under way is woken to re-plan. A change at
// exactly a boundary applies to the quantum that starts there, whichever of
// the caller and the computing process runs first at that instant. (The
// per-quantum loop Compute replaced ran that quantum at the old share when
// the computing process ran first.) The host's admission bound still
// applies.
func (sb *Sandbox) SetCPUShare(share float64) error {
	if !(share > 0 && share <= 1) { // also refuses NaN
		return fmt.Errorf("sandbox: invalid CPU share %g", share)
	}
	if sb.host.reserved-sb.share+share > MaxReservable+1e-9 {
		return fmt.Errorf("sandbox: host %s cannot grow share to %.2f", sb.host.name, share)
	}
	sb.host.reserved += share - sb.share
	sb.share = share
	if sb.run.busy {
		sb.run.proc.Wake()
	}
	return nil
}

// MemLimit returns the memory reservation in bytes: the limit NewSandbox
// admitted, or the host's full memory when none was given.
func (sb *Sandbox) MemLimit() int64 { return sb.memLimit }

// rate returns the cycle rate an application at the given share receives
// for one quantum: its share of the host speed, reduced by the host's
// background OS activity when the application asks for (nearly) the whole
// machine. A small deterministic jitter term, drawn from rng, models
// scheduling noise.
func (h *Host) rate(share float64, rng *prng.Splitmix) float64 {
	avail := 1.0 - h.osLoad
	if share > avail {
		share = avail
	}
	// ±0.5% deterministic jitter.
	jitter := 1.0 + (rng.Float64()-0.5)*0.01
	return h.speed * share * jitter
}

// Compute consumes the given number of processor cycles, blocking the
// calling process for cycles/(speed×share) of virtual time. The share is
// metered per Quantum, and a SetCPUShare during the computation takes
// effect from the next quantum boundary — this is what makes Figure 3(a)'s
// step response sharp. The process wakes once, when the computation ends:
// a computation of one quantum is a plain Sleep; a longer one naps
// through up to maxChunk quanta at a time, and SetCPUShare cuts the nap
// short so the rest is re-planned at the new share.
func (sb *Sandbox) Compute(p *vtime.Proc, cycles float64) {
	c := &sb.run
	if c.busy {
		panic(fmt.Sprintf("sandbox: %s: Compute while %s computes", sb.name, c.proc.Name()))
	}
	if c.proc != p { // a pointer store costs a write barrier while the collector runs
		c.proc = p
	}
	c.busy = true
	start, first := p.Now(), sb.share
	for {
		// Meter the chunk's quanta into the accounting up front; reads
		// replay them from c.from until they end.
		c.from = sb.acct
		left, n := sb.host.advance(&sb.acct, cycles, first, sb.share, maxChunk)
		if n == 0 {
			break
		}
		c.start, c.end = start, start+sb.acct.active-c.from.active
		if n == 1 {
			p.Sleep(c.end - p.Now())
		} else {
			c.cycles, c.first, c.rest = cycles, first, sb.share
			if !p.Nap(c.end-p.Now()) && p.Now() < c.end {
				// The share moved: keep the quanta that have ended and
				// re-plan the rest. The quantum under way finishes at the
				// share it started with, unless it starts just now.
				now := p.Now()
				k := int((now - start) / Quantum)
				sb.acct = c.from
				cycles, _ = sb.host.advance(&sb.acct, c.cycles, c.first, c.rest, k)
				start += time.Duration(k) * Quantum
				switch {
				case start == now:
					first = sb.share
				case k > 0: // the quantum under way is one of the rest
					first = c.rest
				}
				continue
			}
		}
		if left <= 1e-9 {
			break
		}
		start, cycles, first = c.end, left, sb.share
	}
	c.busy = false
}

// CPUTime returns cumulative CPU-seconds received, the counter the paper's
// monitor compares against wall-clock time.
func (sb *Sandbox) CPUTime() time.Duration { return sb.usage().cpu }

// ActiveTime returns cumulative virtual time spent computing (not blocked).
func (sb *Sandbox) ActiveTime() time.Duration { return sb.usage().active }

// usage returns the accounting up to the last quantum boundary at or
// before now: a quantum ending exactly now counts, as it would had its
// process already woken.
func (sb *Sandbox) usage() meter {
	c := &sb.run
	if !c.busy || c.proc.Now() >= c.end {
		return sb.acct
	}
	// Every quantum before the last is a full Quantum.
	m := c.from
	sb.host.advance(&m, c.cycles, c.first, c.rest, int((c.proc.Now()-c.start)/Quantum))
	return m
}
