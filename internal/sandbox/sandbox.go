// Package sandbox implements the paper's virtual execution environment
// (Section 5.1): a resource-constrained sandbox that guarantees an
// application an average CPU share, memory limit, and — in combination with
// package netem — network bandwidth, over short metering periods.
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

	"tunable/internal/metrics"
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

	reg           *metrics.Registry
	reservedGauge *metrics.Gauge
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

// EnableMetrics instruments the host and every sandbox subsequently
// created on it. Metric families: sandbox_cpu_seconds_total,
// sandbox_compute_ops_total, sandbox_throttle_quanta_total,
// sandbox_page_faults_total, sandbox_cpu_share, sandbox_mem_used_bytes,
// all labelled by sandbox (and host); plus sandbox_reserved_share per
// host. Call before NewSandbox; existing sandboxes stay uninstrumented.
func (h *Host) EnableMetrics(reg *metrics.Registry) {
	h.reg = reg
	h.reservedGauge = reg.Gauge("sandbox_reserved_share",
		"Aggregate CPU share reserved on the host.", metrics.L("host", h.name))
	h.reservedGauge.Set(h.reserved)
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Speed returns the processor speed in cycles per second.
func (h *Host) Speed() float64 { return h.speed }

// Reserved returns the total CPU share currently reserved by sandboxes.
func (h *Host) Reserved() float64 { return h.reserved }

// MemReserved returns total reserved memory in bytes.
func (h *Host) MemReserved() int64 { return h.memResv }

// MemTotal returns the host's physical memory in bytes.
func (h *Host) MemTotal() int64 { return h.memTotal }

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
	if h.reg != nil {
		lbls := []metrics.Label{metrics.L("host", h.name), metrics.L("sandbox", name)}
		sb.mCPUSeconds = h.reg.Counter("sandbox_cpu_seconds_total",
			"CPU-seconds actually received (cycles at full machine speed).", lbls...)
		sb.mComputeOps = h.reg.Counter("sandbox_compute_ops_total",
			"Completed Compute calls.", lbls...)
		sb.mThrottleQuanta = h.reg.Counter("sandbox_throttle_quanta_total",
			"Full metering quanta consumed while demand exceeded the share.", lbls...)
		sb.mFaults = h.reg.Counter("sandbox_page_faults_total",
			"Simulated page faults beyond the physical memory limit.", lbls...)
		sb.mShare = h.reg.Gauge("sandbox_cpu_share",
			"Currently configured CPU share.", lbls...)
		sb.mMemUsed = h.reg.Gauge("sandbox_mem_used_bytes",
			"Currently allocated bytes.", lbls...)
		sb.mShare.Set(share)
	}
	h.reserved += share
	if memExplicit {
		h.memResv += memLimit
	}
	h.boxes[name] = sb
	h.reservedGauge.Set(h.reserved)
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
	h.reservedGauge.Set(h.reserved)
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
	memUsed     int64

	// usage accounting, read by the monitoring agent
	cpuTime    time.Duration // CPU-seconds actually received (scaled by share)
	activeTime time.Duration // virtual time spent inside Compute
	faults     int64         // page faults simulated

	// telemetry instruments; nil (no-op) unless Host.EnableMetrics ran
	// before this sandbox was created
	mCPUSeconds     *metrics.Counter
	mComputeOps     *metrics.Counter
	mThrottleQuanta *metrics.Counter
	mFaults         *metrics.Counter
	mShare          *metrics.Gauge
	mMemUsed        *metrics.Gauge
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
	sb.mShare.Set(share)
	sb.host.reservedGauge.Set(sb.host.reserved)
	return nil
}

// MemLimit returns the configured physical memory limit in bytes.
func (sb *Sandbox) MemLimit() int64 { return sb.memLimit }

// SetMemLimit reconfigures the memory limit (the paper switches protection
// bits of mapped pages; here the limit changes the fault model for
// subsequent Touch calls).
func (sb *Sandbox) SetMemLimit(b int64) error {
	if b <= 0 {
		return fmt.Errorf("sandbox: invalid memory limit %d", b)
	}
	prevResv := int64(0)
	if sb.memExplicit {
		prevResv = sb.memLimit
	}
	if sb.host.memResv-prevResv+b > sb.host.memTotal {
		return fmt.Errorf("sandbox: host %s cannot grow memory limit to %d", sb.host.name, b)
	}
	sb.host.memResv += b - prevResv
	sb.memLimit = b
	sb.memExplicit = true
	return nil
}

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
		if dt == Quantum {
			sb.mThrottleQuanta.Inc()
		}
		// CPU-seconds received = cycles consumed at full machine speed.
		cpu := time.Duration(used / sb.host.speed * float64(time.Second))
		sb.cpuTime += cpu
		sb.mCPUSeconds.Add(cpu.Seconds())
	}
	sb.mComputeOps.Inc()
}

// CPUTime returns cumulative CPU-seconds received, the counter the paper's
// monitor compares against wall-clock time.
func (sb *Sandbox) CPUTime() time.Duration { return sb.cpuTime }

// ActiveTime returns cumulative virtual time spent computing (not blocked).
func (sb *Sandbox) ActiveTime() time.Duration { return sb.activeTime }

// Faults returns the number of simulated page faults.
func (sb *Sandbox) Faults() int64 { return sb.faults }

// MemUsed returns current allocated bytes.
func (sb *Sandbox) MemUsed() int64 { return sb.memUsed }

// Alloc records an allocation of n bytes. Allocation never fails (virtual
// memory), but exceeding the physical limit makes subsequent Touch calls
// fault.
func (sb *Sandbox) Alloc(n int64) {
	if n < 0 {
		panic("sandbox: negative allocation")
	}
	sb.memUsed += n
	sb.mMemUsed.Set(float64(sb.memUsed))
}

// Free releases n bytes.
func (sb *Sandbox) Free(n int64) {
	sb.memUsed -= n
	if sb.memUsed < 0 {
		sb.memUsed = 0
	}
	sb.mMemUsed.Set(float64(sb.memUsed))
}

// pageSize is the fault-accounting granularity.
const pageSize = 4096

// faultCycles is the processor cost of servicing one page fault.
const faultCycles = 200_000

// Touch models accessing n bytes of the sandbox's working set. While the
// resident set fits the physical limit this is free; beyond the limit a
// proportional fraction of the touched pages fault, each costing
// faultCycles (the paper flips protection bits on mapped pages; the
// observable effect is the same slowdown).
func (sb *Sandbox) Touch(p *vtime.Proc, n int64) {
	if sb.memUsed <= sb.memLimit || n <= 0 {
		return
	}
	over := float64(sb.memUsed-sb.memLimit) / float64(sb.memUsed)
	pages := (n + pageSize - 1) / pageSize
	faulting := int64(float64(pages) * over)
	if faulting <= 0 {
		return
	}
	sb.faults += faulting
	sb.mFaults.Add(float64(faulting))
	sb.Compute(p, float64(faulting)*faultCycles)
}
