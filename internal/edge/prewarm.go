package edge

import (
	"sync"

	"tunable/internal/avis"
	"tunable/internal/compress"
	"tunable/internal/metrics"
	"tunable/internal/monitor"
)

// maxShapes bounds how many round shapes one fixation accumulates; a
// progressive fetch plans far fewer rounds than this, so the bound only
// guards against a degenerate client.
const maxShapes = 32

// roundShape is the center-independent part of one coarse request: the
// same (level, radius, prev-radius) sequence a client walks at every
// fixation. Replaying the previous fixation's shapes at the predicted
// next center is exactly the traffic the client will send if the
// prediction holds.
type roundShape struct{ level, r, prevR int }

// foveaTracker follows one client connection's fovea, one trajectory per
// image. It is confined to the connection's handler goroutine; only the
// enqueue channel crosses into the prewarm workers. A nil tracker (proxy
// without prewarming) is a no-op.
type foveaTracker struct {
	pw      *prewarmer
	byImage map[int]*imageTrack
}

type imageTrack struct {
	traj   *monitor.Trajectory
	cx, cy int
	has    bool
	shapes []roundShape
}

// newTracker creates the per-connection fovea tracker, or nil when
// prewarming is off.
func (p *Proxy) newTracker() *foveaTracker {
	if p.pw == nil {
		return nil
	}
	return &foveaTracker{pw: p.pw, byImage: make(map[int]*imageTrack)}
}

// observe feeds one served coarse request into the tracker, with the codec
// the session is being served under. A center change is one fovea step:
// the trajectory absorbs it, and if the window supports a prediction, the
// previous fixation's round shapes are enqueued at the predicted next
// center — under that codec, the form the session will ask for them in.
func (t *foveaTracker) observe(req avis.Request, codec compress.Codec) {
	if t == nil {
		return
	}
	it := t.byImage[req.Image]
	if it == nil {
		it = &imageTrack{traj: monitor.NewTrajectory(monitor.DefaultTrajectoryWindow, t.pw.teleport)}
		t.byImage[req.Image] = it
	}
	if !it.has {
		it.has, it.cx, it.cy = true, req.X, req.Y
		it.traj.Observe(req.X, req.Y)
	} else if req.X != it.cx || req.Y != it.cy {
		shapes := it.shapes
		it.shapes = nil
		it.cx, it.cy = req.X, req.Y
		it.traj.Observe(req.X, req.Y)
		if px, py, ok := it.traj.Predict(); ok {
			for _, sh := range shapes {
				t.pw.enqueue(prewarmTask{codec: codec, req: avis.Request{
					Image: req.Image, X: px, Y: py,
					R: sh.r, PrevR: sh.prevR, Level: sh.level,
				}})
			}
		}
	}
	if len(it.shapes) < maxShapes {
		it.shapes = append(it.shapes, roundShape{req.Level, req.R, req.PrevR})
	}
}

// prewarmer drains predicted-region fetch tasks on a single worker.
// Tasks that would overflow the bounded queue are dropped (and counted):
// prewarming is strictly best-effort and must never backpressure the
// serving path.
type prewarmer struct {
	p        *Proxy
	teleport float64
	tasks    chan prewarmTask
	quit     chan struct{}
	wg       sync.WaitGroup

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mFetches *metrics.Counter
	mDropped *metrics.Counter
	mErrors  *metrics.Counter
}

// prewarmTask is one predicted request and the codec to cache it under.
type prewarmTask struct {
	req   avis.Request
	codec compress.Codec
}

func newPrewarmer(p *Proxy) *prewarmer {
	return &prewarmer{
		p:     p,
		tasks: make(chan prewarmTask, prewarmQueue),
		quit:  make(chan struct{}),
	}
}

func (pw *prewarmer) enableMetrics(reg *metrics.Registry) {
	pw.mFetches = reg.Counter("edge_prewarm_fetches_total",
		"Origin rounds issued speculatively for predicted fovea regions.")
	pw.mDropped = reg.Counter("edge_prewarm_dropped_total",
		"Prewarm tasks dropped because the queue was full.")
	pw.mErrors = reg.Counter("edge_prewarm_errors_total",
		"Speculative origin rounds that failed (best-effort, not retried).")
}

// start latches the proxy's resolved teleport distance (Start has filled
// the Config default by now) and launches the worker.
func (pw *prewarmer) start() {
	pw.teleport = pw.p.cfg.teleportDist
	pw.wg.Add(1)
	go pw.run()
}

func (pw *prewarmer) stop() {
	close(pw.quit)
	pw.wg.Wait()
}

// enqueue offers one speculative fetch; never blocks.
func (pw *prewarmer) enqueue(task prewarmTask) {
	select {
	case pw.tasks <- task:
	default:
		pw.mDropped.Inc()
	}
}

func (pw *prewarmer) run() {
	defer pw.wg.Done()
	for {
		select {
		case <-pw.quit:
			return
		case task := <-pw.tasks:
			key := cacheKey(pw.p.cfg.Sig, task.req, task.codec.Name())
			if pw.p.cache.contains(key) {
				continue
			}
			pw.mFetches.Inc()
			if _, err := pw.p.fetchShared(key, task.codec, true); err != nil {
				pw.mErrors.Inc()
			}
		}
	}
}
