// Package daemon is the bootstrap the long-running commands share: the
// -metrics-addr endpoint, the node flags and cluster join of avis-server
// and avis-edge, and the shutdown on SIGINT/SIGTERM.
package daemon

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tunable/internal/cluster"
	"tunable/internal/metrics"
)

// Telemetry is the -metrics-addr flag.
type Telemetry struct{ addr string }

// Define defines -metrics-addr on fs.
func (t *Telemetry) Define(fs *flag.FlagSet) {
	fs.StringVar(&t.addr, "metrics-addr", "", "serve /metrics, /healthz and /debug/pprof/ on this address (empty = disabled)")
}

// Start serves a fresh wall-clock registry at /metrics, with /healthz and
// /debug/pprof/ beside it, on the -metrics-addr address and prints
// "<banner>metrics on http://<addr>/metrics".
// With the flag empty it returns nil: telemetry off.
func (t *Telemetry) Start(banner string) (*metrics.Registry, error) {
	if t.addr == "" {
		return nil, nil
	}
	reg := metrics.New()
	srv, err := metrics.Serve(t.addr, reg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%smetrics on http://%s/metrics\n", banner, srv.Addr)
	return reg, nil
}

// Node holds the flags of a data-plane daemon: where it listens, how it
// joins the cluster, and how long it drains on shutdown.
type Node struct {
	Metrics                     Telemetry
	Addr, Advertise, Coord, ID  string
	CPU                         float64
	Mem                         int64
	Heartbeat, Drain, IOTimeout time.Duration
	agent                       *cluster.Agent // set by Join
}

// Define defines the node flags on fs, -addr with the given default and usage.
func (n *Node) Define(fs *flag.FlagSet, addr, usage string) {
	n.Metrics.Define(fs)
	fs.StringVar(&n.Addr, "addr", addr, usage)
	fs.DurationVar(&n.IOTimeout, "io-timeout", 0, "drop a connection whose frame I/O makes no progress for this long (0 = wait forever)")
	fs.StringVar(&n.Coord, "coord", "", "register with the avis-coord coordinator at this address (empty = standalone)")
	fs.StringVar(&n.ID, "node-id", "", "cluster node name (default: the advertised address)")
	fs.StringVar(&n.Advertise, "advertise", "", "data-plane address to announce to the coordinator (default: the listen address)")
	fs.Float64Var(&n.CPU, "cpu", 1.0, "CPU share capacity declared to cluster admission control (0,1]")
	fs.Int64Var(&n.Mem, "mem", 512<<20, "memory capacity in bytes declared to cluster admission control")
	fs.DurationVar(&n.Heartbeat, "heartbeat", cluster.DefaultHeartbeat, "cluster heartbeat interval")
	fs.DurationVar(&n.Drain, "drain", 5*time.Second, "graceful-shutdown drain bound for in-flight sessions")
}

// Info is the registration of a node listening at listen: its address is
// -advertise or else listen, its id -node-id or else that address.
func (n *Node) Info(listen net.Addr) cluster.NodeInfo {
	info := cluster.NodeInfo{ID: n.ID, Addr: n.Advertise, CPU: n.CPU, MemBytes: n.Mem}
	if info.Addr == "" {
		info.Addr = listen.String()
	}
	if info.ID == "" {
		info.ID = info.Addr
	}
	return info
}

// Join registers info with the -coord coordinator, if one is named, and
// keeps it alive with heartbeats reporting load.
func (n *Node) Join(prog string, info cluster.NodeInfo, load func() cluster.Load) {
	if n.Coord == "" {
		return
	}
	n.agent = cluster.NewAgent(n.Coord, info, n.Heartbeat, load)
	if err := n.agent.Start(); err != nil {
		log.Fatalf("%s: join cluster: %v", prog, err)
	}
	fmt.Printf("%s: joined cluster at %s as %q (heartbeat %v)\n", prog, n.Coord, info.ID, n.Heartbeat)
}

// Serve is the package Serve followed by a graceful stop: deregister, so
// the coordinator fails the node's sessions over at once, then give
// in-flight sessions up to -drain (shutdown returns how many it cut).
func (n *Node) Serve(prog string, l net.Listener, serve func(net.Listener) error, shutdown func(time.Duration) int) {
	s := Serve(prog, l, serve)
	fmt.Printf("%s: %v, draining (bound %v)\n", prog, s, n.Drain)
	if n.agent != nil {
		n.agent.Close(true)
	}
	if forced := shutdown(n.Drain); forced > 0 {
		fmt.Printf("%s: cut %d session(s) still open after drain\n", prog, forced)
	}
}

// Serve runs serve on l until SIGINT or SIGTERM arrives and returns the
// signal; serve failing first is fatal.
func Serve(prog string, l net.Listener, serve func(net.Listener) error) os.Signal {
	sig, errc := make(chan os.Signal, 1), make(chan error, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { errc <- serve(l) }()
	select {
	case s := <-sig:
		return s
	case err := <-errc:
		log.Fatalf("%s: %v", prog, err)
		return nil
	}
}
