package daemon

import (
	"flag"
	"net"
	"testing"
	"time"

	"tunable/internal/cluster"
)

// The node flags' defaults: the advertised address falls back to the
// listen address and the node id to the advertised address, and an
// explicit flag wins over either fallback.
func TestNodeInfoDefaults(t *testing.T) {
	listen := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7465}
	for _, tc := range []struct {
		name string
		argv []string
		want cluster.NodeInfo
	}{
		{"defaults", nil,
			cluster.NodeInfo{ID: "127.0.0.1:7465", Addr: "127.0.0.1:7465", CPU: 1, MemBytes: 512 << 20}},
		{"advertise names the id", []string{"-advertise", "10.0.0.5:7465"},
			cluster.NodeInfo{ID: "10.0.0.5:7465", Addr: "10.0.0.5:7465", CPU: 1, MemBytes: 512 << 20}},
		{"node-id wins", []string{"-node-id", "node-a", "-cpu", "0.5", "-mem", "1024"},
			cluster.NodeInfo{ID: "node-a", Addr: "127.0.0.1:7465", CPU: 0.5, MemBytes: 1024}},
		{"both explicit", []string{"-advertise", "10.0.0.5:9000", "-node-id", "node-b"},
			cluster.NodeInfo{ID: "node-b", Addr: "10.0.0.5:9000", CPU: 1, MemBytes: 512 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var n Node
			fs := flag.NewFlagSet("node", flag.ContinueOnError)
			n.Define(fs, ":7465", "listen address")
			if err := fs.Parse(tc.argv); err != nil {
				t.Fatal(err)
			}
			if got := n.Info(listen); got.ID != tc.want.ID || got.Addr != tc.want.Addr ||
				got.CPU != tc.want.CPU || got.MemBytes != tc.want.MemBytes {
				t.Errorf("Info = %+v, want %+v", got, tc.want)
			}
			if n.Addr != ":7465" || n.Heartbeat != cluster.DefaultHeartbeat || n.Drain != 5*time.Second {
				t.Errorf("flag defaults: addr %q heartbeat %v drain %v", n.Addr, n.Heartbeat, n.Drain)
			}
		})
	}
}
