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
// hostSpeed × share, re-reading the share every quantum so dynamic
// reconfiguration takes effect within one quantum, exactly as the paper's
// priority adjustments do. The sandbox doubles as the profiling testbed and
// as the run-time policing mechanism (Section 6.2), as in the paper.
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
	rng      *prng.Splitmix
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
		rng:      prng.New(prng.Hash(name)),
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
	if memExplicit && h.memResv+memLimit > h.memTotal {
		return nil, fmt.Errorf("sandbox: host %s cannot admit %d bytes (%d of %d reserved)",
			h.name, memLimit, h.memResv, h.memTotal)
	}
	sb := &Sandbox{
		host:        h,
		name:        name,
		share:       share,
		memLimit:    memLimit,
		memExplicit: memExplicit,
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
// process context.
type Sandbox struct {
	host        *Host
	name        string
	share       float64
	memLimit    int64
	memExplicit bool

	// usage accounting, read by the monitoring agent
	cpuTime    time.Duration // CPU-seconds actually received (scaled by share)
	activeTime time.Duration // virtual time spent inside Compute
}

// Name returns the sandbox name.
func (sb *Sandbox) Name() string { return sb.name }

// Host returns the host the sandbox runs on.
func (sb *Sandbox) Host() *Host { return sb.host }

// CPUShare returns the currently configured share.
func (sb *Sandbox) CPUShare() float64 { return sb.share }

// SetCPUShare reconfigures the share; it takes effect within one Quantum,
// mirroring the dynamic testbed reconfiguration used in Figure 3(a). The
// host's admission bound still applies.
func (sb *Sandbox) SetCPUShare(share float64) error {
	if !(share > 0 && share <= 1) { // also refuses NaN
		return fmt.Errorf("sandbox: invalid CPU share %g", share)
	}
	if sb.host.reserved-sb.share+share > MaxReservable+1e-9 {
		return fmt.Errorf("sandbox: host %s cannot grow share to %.2f", sb.host.name, share)
	}
	sb.host.reserved += share - sb.share
	sb.share = share
	return nil
}

// MemLimit returns the memory reservation in bytes: the limit NewSandbox
// admitted, or the host's full memory when none was given.
func (sb *Sandbox) MemLimit() int64 { return sb.memLimit }

// effectiveRate returns the cycle rate the application receives right now:
// its share of the host speed, reduced by the host's background OS
// activity when the application asks for (nearly) the whole machine. A
// small deterministic jitter term models scheduling noise.
func (sb *Sandbox) effectiveRate() float64 {
	avail := 1.0 - sb.host.osLoad
	share := sb.share
	if share > avail {
		share = avail
	}
	// ±0.5% deterministic jitter.
	jitter := 1.0 + (sb.host.rng.Float64()-0.5)*0.01
	return sb.host.speed * share * jitter
}

// Compute consumes the given number of processor cycles, blocking the
// calling process for cycles/(speed×share) of virtual time. The share is
// re-read every Quantum, so concurrent SetCPUShare calls take effect
// mid-computation — this is what makes Figure 3(a)'s step response sharp.
func (sb *Sandbox) Compute(p *vtime.Proc, cycles float64) {
	for cycles > 1e-9 {
		rate := sb.effectiveRate()
		if rate <= 0 {
			panic("sandbox: zero effective rate")
		}
		quantumCycles := rate * Quantum.Seconds()
		var dt time.Duration
		var used float64
		if cycles >= quantumCycles {
			dt = Quantum
			used = quantumCycles
		} else {
			dt = time.Duration(cycles / rate * float64(time.Second))
			if dt <= 0 {
				dt = time.Nanosecond
			}
			used = cycles
		}
		p.Sleep(dt)
		cycles -= used
		sb.activeTime += dt
		// CPU-seconds received = cycles consumed at full machine speed.
		sb.cpuTime += time.Duration(used / sb.host.speed * float64(time.Second))
	}
}

// CPUTime returns cumulative CPU-seconds received, the counter the paper's
// monitor compares against wall-clock time.
func (sb *Sandbox) CPUTime() time.Duration { return sb.cpuTime }

// ActiveTime returns cumulative virtual time spent computing (not blocked).
func (sb *Sandbox) ActiveTime() time.Duration { return sb.activeTime }
