package monitor

import (
	"time"

	"tunable/internal/netem"
	"tunable/internal/resource"
	"tunable/internal/sandbox"
)

// CPUProbe estimates the CPU share a sandboxed application actually
// receives by comparing allotted CPU time against wall-clock time,
// factoring out periods where the application was blocked — exactly the
// computation the paper's monitor performs. It never reads the sandbox's
// configured share.
type CPUProbe struct {
	sb         *sandbox.Sandbox
	lastCPU    time.Duration
	lastActive time.Duration
}

// NewCPUProbe creates a CPU probe for a sandboxed component. The agent
// keys estimates by resource kind, so component only names the probe where
// it is wired.
func NewCPUProbe(component string, sb *sandbox.Sandbox) *CPUProbe {
	return &CPUProbe{sb: sb}
}

// Kind implements Probe.
func (p *CPUProbe) Kind() resource.Kind { return resource.CPU }

// Sample implements Probe: achieved share = ΔCPU-time / Δactive-time.
func (p *CPUProbe) Sample(time.Duration) (float64, bool) {
	cpu, active := p.sb.CPUTime(), p.sb.ActiveTime()
	dCPU, dActive := cpu-p.lastCPU, active-p.lastActive
	p.lastCPU, p.lastActive = cpu, active
	if dActive <= 0 {
		return 0, false // application idle; nothing observed
	}
	return float64(dCPU) / float64(dActive), true
}

// BandwidthProbe estimates available network bandwidth from the sending
// side of a link endpoint: bytes pushed divided by the time the sender
// spent blocked serializing them ("a message send incurs more delay than
// would be expected").
type BandwidthProbe struct {
	ep        *netem.Endpoint
	lastBytes int64
	lastBusy  time.Duration
}

// NewBandwidthProbe creates a bandwidth probe over an endpoint's outgoing
// direction. As with NewCPUProbe, component only names the probe where it
// is wired.
func NewBandwidthProbe(component string, ep *netem.Endpoint) *BandwidthProbe {
	return &BandwidthProbe{ep: ep}
}

// Kind implements Probe.
func (p *BandwidthProbe) Kind() resource.Kind { return resource.Bandwidth }

// Sample implements Probe.
func (p *BandwidthProbe) Sample(time.Duration) (float64, bool) {
	c := p.ep.OutCounters()
	dBytes := c.BytesSent - p.lastBytes
	dBusy := c.SendBusy - p.lastBusy
	p.lastBytes, p.lastBusy = c.BytesSent, c.SendBusy
	if dBusy <= 0 || dBytes <= 0 {
		return 0, false
	}
	return float64(dBytes) / dBusy.Seconds(), true
}

// OracleProbe returns values from a closure; it is the "oracle monitor"
// used by the ablation benchmarks (reading ground truth instead of
// estimating it) and a convenient stub in tests.
type OracleProbe struct {
	K  resource.Kind
	Fn func(now time.Duration) (float64, bool)
}

// Kind implements Probe.
func (p *OracleProbe) Kind() resource.Kind { return p.K }

// Sample implements Probe.
func (p *OracleProbe) Sample(now time.Duration) (float64, bool) { return p.Fn(now) }

var (
	_ Probe = (*CPUProbe)(nil)
	_ Probe = (*BandwidthProbe)(nil)
	_ Probe = (*OracleProbe)(nil)
)
