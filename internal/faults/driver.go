package faults

import (
	"fmt"
	"sort"
	"time"

	"tunable/internal/netem"
	"tunable/internal/sandbox"
	"tunable/internal/vtime"
)

// Driver applies a Schedule in virtual time to simulated netem.Links and
// sandbox.Sandboxes, each under a label the events' targets match.
// Because the vtime kernel is deterministic, the same schedule against the
// same simulation replays the exact same fault sequence — virtual
// timestamps included.
//
// Supported kinds: Drop (link loss rate), Latency (added one-way delay),
// Bandwidth (link rate dip), Partition (loss 1.0 — every frame serialized
// then dropped) on links, and CPU (share step) on sandboxes. Reset and
// Pause have no simulated analogue and are skipped.
type Driver struct {
	sim       *vtime.Sim
	links     map[string]*netem.Link
	sandboxes map[string]*sandbox.Sandbox
	sched     Schedule
	log       []Injected

	// baselines captured at Install time; refresh folds active windows on
	// top of these at every event boundary.
	baseBW    map[string]float64
	baseLat   map[string]time.Duration
	baseLoss  map[string]float64
	baseShare map[string]float64
}

// NewDriver prepares a driver over the given labelled links and sandboxes
// (either map may be nil). The schedule must validate. Call Install to arm
// the events on the simulation clock (offsets are relative to the
// simulation's current time).
func NewDriver(sim *vtime.Sim, links map[string]*netem.Link, sandboxes map[string]*sandbox.Sandbox, sched Schedule) (*Driver, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	return &Driver{
		sim:       sim,
		links:     links,
		sandboxes: sandboxes,
		sched:     sched,
		baseBW:    make(map[string]float64),
		baseLat:   make(map[string]time.Duration),
		baseLoss:  make(map[string]float64),
		baseShare: make(map[string]float64),
	}, nil
}

// Log returns the fault log so far (virtual timestamps).
func (d *Driver) Log() []Injected { return append([]Injected(nil), d.log...) }

func (d *Driver) record(kind Kind, target, detail string) {
	d.log = append(d.log, Injected{At: d.sim.Now(), Kind: kind, Target: target, Detail: detail})
}

// Install captures baselines and schedules a state refresh at every event
// boundary on the simulation clock. Fault state is recomputed from the
// whole schedule at each boundary, so overlapping windows of one kind
// compose correctly (worst value wins while both are open).
func (d *Driver) Install() {
	links := make([]string, 0, len(d.links))
	for label, l := range d.links {
		d.baseBW[label] = l.Bandwidth()
		d.baseLat[label] = l.Latency()
		d.baseLoss[label] = l.Loss()
		links = append(links, label)
	}
	sandboxes := make([]string, 0, len(d.sandboxes))
	for label, sb := range d.sandboxes {
		d.baseShare[label] = sb.CPUShare()
		sandboxes = append(sandboxes, label)
	}
	sort.Strings(links) // deterministic arming order
	sort.Strings(sandboxes)
	for _, ev := range d.sched.Events {
		labels, refresh := links, d.refreshLink
		var detail string // the fault log entry of each opening
		switch ev.Kind {
		case Drop:
			detail = fmt.Sprintf("loss=%.2f", ev.Rate)
		case Partition:
			detail = "loss=1.00"
		case Latency:
			detail = fmt.Sprintf("+%v", ev.Delay)
		case Bandwidth:
			detail = fmt.Sprintf("%.0fB/s", ev.Rate)
		case CPU:
			labels, refresh = sandboxes, d.refreshSandbox
			detail = fmt.Sprintf("share=%.2f", ev.Rate)
		default:
			continue // no simulated analogue
		}
		for _, label := range labels {
			if !ev.Matches(label) {
				continue
			}
			d.sim.After(ev.At, func() {
				refresh(label)
				d.record(ev.Kind, label, detail)
			})
			d.sim.After(ev.At+ev.Duration, func() { refresh(label) })
		}
	}
}

// refreshLink applies the schedule's condition at the current virtual
// instant onto the label's baseline: the higher loss (1 under a
// partition), the baseline latency plus the open delays, and the lower
// bandwidth. A pause has no simulated analogue on a link.
func (d *Driver) refreshLink(label string) {
	l := d.links[label]
	c := d.sched.conditionAt(label, d.sim.Now())
	loss := max(d.baseLoss[label], c.dropRate)
	if c.partit {
		loss = 1
	}
	bw := d.baseBW[label]
	if c.bw != 0 {
		bw = min(bw, c.bw)
	}
	_ = l.SetLoss(loss)
	l.SetLatency(d.baseLat[label] + c.delay)
	_ = l.SetBandwidth(bw)
}

// refreshSandbox is refreshLink for a sandbox: the lowest share of the
// open CPU windows wins, and the baseline share returns when the last one
// closes. The share never rises above its baseline, so the host's
// admission bound cannot refuse it.
func (d *Driver) refreshSandbox(label string) {
	share := d.baseShare[label]
	if c := d.sched.conditionAt(label, d.sim.Now()); c.share != 0 {
		share = min(share, c.share)
	}
	_ = d.sandboxes[label].SetCPUShare(share)
}
