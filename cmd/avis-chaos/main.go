// Command avis-chaos runs a self-contained chaos experiment: it boots a
// coordinator and a small cluster of avis servers in one process, wires
// every connection — heartbeats, resolves, and the data plane — through
// the fault-injection layer, and then downloads the same image twice:
// once fault-free as a reference, once under a seeded schedule of
// partition, loss, connection reset, and a slow node. The run passes when
// the chaos download finishes byte-identical to the reference and the
// resilience counters (round retries, failovers, heartbeat failures)
// actually moved.
//
// The fault schedule is a pure function of -seed and the shape flags, so
// a failing run replays exactly: re-run with the same seed and the same
// faults fire in the same order.
//
// Usage:
//
//	avis-chaos -seed 42 -nodes 3 -partition 2s -loss 0.1 -slow 10ms
//	avis-chaos -seed 42 -metrics-addr localhost:7700 -v
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"reflect"
	"time"

	"tunable/cmd/internal/daemon"
	"tunable/internal/avis"
	"tunable/internal/cluster"
	"tunable/internal/faults"
	"tunable/internal/imagery"
	"tunable/internal/metrics"
	"tunable/internal/wavelet"
)

func main() {
	seed := flag.Uint64("seed", 1, "fault schedule seed (same seed, same fault sequence)")
	nodes := flag.Int("nodes", 3, "cluster size (the last node is the slow one)")
	images := flag.Int("images", 1, "images to download under chaos")
	partition := flag.Duration("partition", 2*time.Second, "asymmetric control-plane partition length (0 = none)")
	loss := flag.Float64("loss", 0.10, "data-plane loss rate during the loss window (0 = none)")
	lossWindow := flag.Duration("loss-window", 400*time.Millisecond, "length of the data-plane loss window")
	slowDelay := flag.Duration("slow", 10*time.Millisecond, "per-read latency injected on the slow node (0 = none)")
	reset := flag.Bool("reset", true, "script a connection reset on the session's data conn")
	dr := flag.Int("dr", 32, "incremental fovea size")
	codec := flag.String("codec", "lzw", "compression method: lzw, bzw, or raw")
	level := flag.Int("level", 4, "resolution level")
	side := flag.Int("side", 256, "image side length")
	verbose := flag.Bool("v", false, "print every injected fault")
	var tel daemon.Telemetry
	tel.Define(flag.CommandLine)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("avis-chaos: ")

	if *nodes < 2 {
		log.Fatal("need at least 2 nodes to fail over between")
	}
	sched := buildSchedule(*seed, *nodes, *partition, *loss, *lossWindow, *slowDelay, *reset)
	fmt.Printf("seed %d: %d scripted fault event(s) over %v\n", *seed, len(sched.Events), sched.Horizon())
	for _, e := range sched.Events {
		fmt.Printf("  %s\n", e)
	}

	reg, err := tel.Start("")
	if err != nil {
		log.Fatal(err)
	}

	injector, err := faults.New(sched)
	if err != nil {
		log.Fatal(err)
	}
	injector.EnableMetrics(reg)

	ok, err := run(reg, injector, sched, *seed, *nodes, *images, *partition,
		avis.Params{DR: *dr, Codec: *codec, Level: *level}, *side, *verbose)
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

// buildSchedule derives the fault script from the shape flags. The reset
// and loss window start after the partition heals, so session failovers
// re-resolve against nodes the coordinator has already revived.
func buildSchedule(seed uint64, nodes int, partition time.Duration, loss float64, lossWindow, slowDelay time.Duration, reset bool) faults.Schedule {
	var events []faults.Event
	if partition > 0 {
		events = append(events, faults.Event{
			At: 0, Duration: partition, Kind: faults.Partition, Target: "ctrl:node-",
		})
	}
	if slowDelay > 0 {
		events = append(events, faults.Event{
			At: 0, Duration: partition + 10*time.Second, Kind: faults.Latency,
			Target: fmt.Sprintf("data:node-%d", nodes-1), Delay: slowDelay,
		})
	}
	if reset {
		events = append(events, faults.Event{
			At: partition + 500*time.Millisecond, Kind: faults.Reset, Target: "data:",
		})
	}
	if loss > 0 {
		events = append(events, faults.Event{
			At: partition + 800*time.Millisecond, Duration: lossWindow,
			Kind: faults.Drop, Target: "data:", Rate: loss,
		})
	}
	return faults.NewSchedule(seed, events...)
}

func run(reg *metrics.Registry, injector *faults.Injector, sched faults.Schedule,
	seed uint64, nodes, images int, partition time.Duration,
	params avis.Params, side int, verbose bool) (bool, error) {

	coord := cluster.NewCoordinator(cluster.Config{
		SuspectAfter: 500 * time.Millisecond,
		// Longer than the partition: silenced nodes go suspect, not dead.
		DeadAfter: partition + 10*time.Second,
	})
	coord.EnableMetrics(reg)
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return false, err
	}
	go coord.Serve(cl)
	defer coord.Shutdown(time.Second)
	defer coord.StartTicker(50 * time.Millisecond)()

	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("node-%d", i)
		srv, err := avis.NewRealServer(side, params.Level, []int64{1, 2}, avis.SharedStore())
		if err != nil {
			return false, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return false, err
		}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Shutdown(0)
		agent := cluster.NewAgent(cl.Addr().String(), cluster.NodeInfo{
			ID: id, Addr: ln.Addr().String(),
			CPU: 1.0, MemBytes: 256 << 20,
			Side: side, Levels: params.Level, Seeds: []int64{1, 2},
		}, 15*time.Millisecond, func() cluster.Load {
			return cluster.Load{ActiveSessions: srv.ActiveSessions()}
		})
		agent.EnableMetrics(reg)
		agent.SetRetryPolicy(2, cluster.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2}, nil)
		agent.SetDialer(func(network, addr string, timeout time.Duration) (net.Conn, error) {
			return injector.Dial("ctrl:"+id, network, addr, timeout)
		})
		if err := agent.Start(); err != nil {
			return false, err
		}
		defer agent.Close(false)
	}

	r := cluster.NewResolver(cl.Addr().String(), time.Second)
	defer r.Close()
	r.EnableMetrics(reg)
	r.SetDialer(func(network, addr string, timeout time.Duration) (net.Conn, error) {
		return injector.Dial("ctrl:client", network, addr, timeout)
	})

	fc, err := cluster.DialFailover(r, params,
		cluster.WithIOTimeout(400*time.Millisecond),
		cluster.WithFailoverBackoff(cluster.Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond, Factor: 2, Jitter: 0.5}),
		cluster.WithRetryBudget(cluster.NewRetryBudget(20, 0)),
		cluster.WithMaxFailovers(2*nodes),
		cluster.WithRoundHook(func(img, round int) {
			// Stretch each fetch so the scripted instants land mid-stream.
			if injector.Started() && (round == 1 || round == 3) {
				time.Sleep(300 * time.Millisecond)
			}
		}),
		cluster.WithDialer(func(nodeID, addr string, timeout time.Duration) (net.Conn, error) {
			return injector.Dial("data:"+nodeID, "tcp", addr, timeout)
		}))
	if err != nil {
		return false, err
	}
	defer fc.Close()
	fc.EnableMetrics(reg)

	geom := fc.Geometry()
	refs := make([]*imagery.Image, images)
	for i := 0; i < images; i++ {
		img, err := fetchReconstructed(fc, i%geom.NumImages, side, params.Level)
		if err != nil {
			return false, fmt.Errorf("reference fetch %d: %w", i, err)
		}
		refs[i] = img
	}
	fmt.Printf("reference: %d image(s) downloaded fault-free from node %s\n", images, fc.Node())

	injector.Start()
	if partition > 0 {
		fmt.Printf("partition up for %v: heartbeats failing, nodes going suspect...\n", partition)
		time.Sleep(partition + 300*time.Millisecond)
	}

	failed := false
	for i := 0; i < images; i++ {
		img, err := fetchReconstructed(fc, i%geom.NumImages, side, params.Level)
		if err != nil {
			fmt.Printf("FAIL: chaos fetch %d: %v\n", i, err)
			failed = true
			break
		}
		if !reflect.DeepEqual(refs[i].Pix, img.Pix) {
			fmt.Printf("FAIL: image %d differs from the fault-free reference\n", i)
			failed = true
		}
	}

	lg := injector.Log()
	if verbose {
		for _, inj := range lg {
			fmt.Printf("  %s\n", inj)
		}
	}
	fmt.Printf("faults injected: %d; round retries: %d; failovers: %d; final node: %s\n",
		len(lg), fc.Retries(), fc.Failovers(), fc.Node())
	if failed {
		return false, nil
	}
	if len(lg) == 0 && len(sched.Events) > 0 {
		fmt.Println("FAIL: the schedule fired no faults (fetches too short? raise -loss or -partition)")
		return false, nil
	}
	fmt.Println("OK: chaos output byte-identical to the fault-free reference")
	return true, nil
}

// fetchReconstructed downloads one image and reconstructs it client-side.
func fetchReconstructed(fc *cluster.FailoverClient, img, side, level int) (*imagery.Image, error) {
	canvas, err := wavelet.NewCanvas(side, level)
	if err != nil {
		return nil, err
	}
	if _, err := fc.FetchImage(img, canvas); err != nil {
		return nil, err
	}
	return canvas.Reconstruct(level)
}
