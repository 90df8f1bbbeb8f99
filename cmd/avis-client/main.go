// Command avis-client downloads images from a running avis-server over
// real TCP, optionally through a token-bucket-shaped link, and reports the
// QoS metrics of the paper (transmission time, average round response
// time, resolution) for each image.
//
// With -coord it resolves its server through the avis-coord coordinator
// instead of -addr: the coordinator places the session on the
// least-loaded node that admits the session's resource demand, and if
// that node dies mid-stream the client fails over to a replacement and
// the progressive transmission continues where it stopped.
//
// With -metrics-addr it exposes the client-side avis_* metric families (and,
// for a session shaped by -bw, the shaper's netem_conn_* families, which
// under -coord count every connection a failover dials) at
// /metrics (Prometheus text format; ?format=json for JSON), /healthz and
// the runtime profiles under /debug/pprof/.
// With -io-timeout a dead or wedged server surfaces as a clean timeout
// error instead of a hang (and, under -coord, triggers failover).
//
// Usage:
//
//	avis-client -addr localhost:7465 -dr 320 -codec lzw -level 4 -n 3 -bw 500000
//	avis-client -coord localhost:7600 -io-timeout 3s -dr 320 -codec lzw -n 3
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"tunable/cmd/internal/daemon"
	"tunable/internal/avis"
	"tunable/internal/cluster"
	"tunable/internal/netem"
	"tunable/internal/wavelet"
)

// fetcher is the part of the client the download loop needs; satisfied by
// both avis.RealClient (direct) and cluster.FailoverClient (coordinated).
type fetcher interface {
	FetchImage(img int, canvas *wavelet.Canvas) (avis.ImageStat, error)
	Geometry() avis.Geometry
	Close() error
}

func main() {
	addr := flag.String("addr", "localhost:7465", "server address (ignored with -coord)")
	coord := flag.String("coord", "", "resolve the server through the coordinator at this address")
	dr := flag.Int("dr", 320, "incremental fovea size")
	codec := flag.String("codec", "lzw", "compression method: lzw, bzw, or raw")
	level := flag.Int("level", 4, "resolution level")
	n := flag.Int("n", 1, "number of images to download")
	bw := flag.Float64("bw", 0, "shape the connection to this many bytes/second (0 = unshaped)")
	verify := flag.Bool("verify", false, "reconstruct images client-side and report integrity")
	ioTimeout := flag.Duration("io-timeout", 0, "fail a frame read/write that makes no progress for this long (0 = wait forever)")
	sessCPU := flag.Float64("session-cpu", 0, "CPU share demanded from cluster admission control (0 = coordinator default)")
	preferEdge := flag.Bool("prefer-edge", false, "place the session on an edge cache node when one fronts the store (with -coord)")
	maxFailovers := flag.Int("max-failovers", 3, "node failures one image fetch survives before giving up (with -coord)")
	failoverBackoff := flag.Duration("failover-backoff", 100*time.Millisecond, "base of the jittered exponential backoff between failover attempts (with -coord)")
	retryBudget := flag.Int("retry-budget", 0, "total retry tokens for the session, 0 = unlimited (with -coord)")
	retryBudgetRate := flag.Float64("retry-budget-rate", 0, "retry tokens refilled per second (with -retry-budget)")
	dump := flag.String("dump", "", "append each reconstructed image's pixels (float64 LE) to this file (implies client-side reconstruction)")
	var tel daemon.Telemetry
	tel.Define(flag.CommandLine)
	flag.Parse()

	reg, err := tel.Start("")
	if err != nil {
		log.Fatalf("avis-client: %v", err)
	}

	params := avis.Params{DR: *dr, Codec: *codec, Level: *level}
	var client fetcher
	if *coord != "" {
		resolver := cluster.NewResolver(*coord, 0)
		defer resolver.Close()
		opts := []cluster.FailoverOption{
			cluster.WithBandwidth(*bw),
			cluster.WithSessionDemand(*sessCPU, 0),
			cluster.WithMaxFailovers(*maxFailovers),
			cluster.WithFailoverBackoff(cluster.Backoff{
				Base: *failoverBackoff, Max: 20 * *failoverBackoff, Factor: 2, Jitter: 0.5,
			}),
		}
		if *preferEdge {
			opts = append(opts, cluster.WithPreferEdge())
		}
		if *ioTimeout > 0 {
			opts = append(opts, cluster.WithIOTimeout(*ioTimeout))
		}
		if *retryBudget > 0 {
			opts = append(opts, cluster.WithRetryBudget(cluster.NewRetryBudget(*retryBudget, *retryBudgetRate)))
		}
		fc, err := cluster.DialFailover(resolver, params, opts...)
		if err != nil {
			log.Fatalf("avis-client: %v", err)
		}
		fc.EnableMetrics(reg)
		fmt.Printf("placed on node %s\n", fc.Node())
		client = fc
	} else {
		conn, err := net.Dial("tcp", *addr)
		if err != nil {
			log.Fatalf("avis-client: %v", err)
		}
		shaped := avis.Shape(conn, *bw)
		if sc, ok := shaped.(*netem.ShapedConn); ok {
			sc.EnableMetrics(reg)
		}
		rc, err := avis.NewRealClient(shaped, params)
		if err != nil {
			log.Fatalf("avis-client: %v", err)
		}
		rc.SetIOTimeout(*ioTimeout)
		rc.EnableMetrics(reg)
		if err := rc.Connect(); err != nil {
			fatalFetch("connect", err)
		}
		client = rc
	}
	defer client.Close()
	geom := client.Geometry()
	fmt.Printf("connected: %d images, %d² pixels, %d levels\n",
		geom.NumImages, geom.Side, geom.Levels)

	var dumpFile *os.File
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			log.Fatalf("avis-client: %v", err)
		}
		defer f.Close()
		dumpFile = f
	}

	fmt.Println("image\ttransmit(s)\tresponse(s)\trounds\traw(B)\twire(B)")
	for i := 0; i < *n; i++ {
		img := i % geom.NumImages
		var canvas *wavelet.Canvas
		if *verify || dumpFile != nil {
			var err error
			canvas, err = wavelet.NewCanvas(geom.Side, geom.Levels)
			if err != nil {
				log.Fatalf("avis-client: %v", err)
			}
		}
		st, err := client.FetchImage(img, canvas)
		if err != nil {
			fatalFetch(fmt.Sprintf("fetch %d", img), err)
		}
		fmt.Printf("%d\t%.3f\t%.3f\t%d\t%d\t%d\n",
			img, st.TransmitTime.Seconds(), st.AvgResponse.Seconds(),
			st.Rounds, st.RawBytes, st.WireBytes)
		if canvas != nil {
			rec, err := canvas.Reconstruct(*level)
			if err != nil {
				log.Fatalf("avis-client: reconstruction failed: %v", err)
			}
			if *verify {
				fmt.Printf("  image %d reconstructed at level %d\n", img, *level)
			}
			if dumpFile != nil {
				if err := binary.Write(dumpFile, binary.LittleEndian, rec.Pix); err != nil {
					log.Fatalf("avis-client: dump: %v", err)
				}
			}
		}
	}
	if fc, ok := client.(*cluster.FailoverClient); ok && fc.Failovers() > 0 {
		fmt.Printf("survived %d failover(s); finished on node %s\n", fc.Failovers(), fc.Node())
	}
}

// fatalFetch exits with a clean one-line diagnosis, distinguishing a dead
// peer (typed I/O timeout) from protocol failures.
func fatalFetch(op string, err error) {
	var te *avis.TimeoutError
	if errors.As(err, &te) {
		log.Fatalf("avis-client: %s: server made no progress within %v (%s stalled) — is the peer alive? Raise -io-timeout for slow links.",
			op, te.After, te.Op)
	}
	log.Fatalf("avis-client: %s: %v", op, err)
}
