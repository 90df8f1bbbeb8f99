package scheduler

import (
	"math"
	"testing"

	"tunable/internal/resource"
	"tunable/internal/sandbox"
	"tunable/internal/vtime"
)

func admissionRig(t *testing.T) (*Admission, *sandbox.Host, *sandbox.Host) {
	t.Helper()
	sim := vtime.NewSim()
	client := sandbox.NewHost(sim, "client", 450e6, sandbox.WithMemory(128<<20))
	server := sandbox.NewHost(sim, "server", 450e6, sandbox.WithMemory(128<<20))
	a := NewAdmission()
	if err := a.AddHost(client); err != nil {
		t.Fatal(err)
	}
	if err := a.AddHost(server); err != nil {
		t.Fatal(err)
	}
	return a, client, server
}

func TestReserveAndRelease(t *testing.T) {
	a, client, server := admissionRig(t)
	r, err := a.Reserve("avis", map[string]resource.Vector{
		"client": {resource.CPU: 0.6, resource.Memory: 32 << 20},
		"server": {resource.CPU: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Components(); len(got) != 2 || got[0] != "client" || got[1] != "server" {
		t.Fatalf("components %v", got)
	}
	sb, ok := r.Sandbox("client")
	if !ok || sb.CPUShare() != 0.6 || sb.MemLimit() != 32<<20 {
		t.Fatalf("client sandbox %+v", sb)
	}
	if client.Reserved() != 0.6 || server.Reserved() != 0.4 {
		t.Fatalf("reservations %.2f %.2f", client.Reserved(), server.Reserved())
	}
	r.Release()
	if client.Reserved() != 0 || server.Reserved() != 0 {
		t.Fatalf("release left %.2f %.2f", client.Reserved(), server.Reserved())
	}
	r.Release() // idempotent
	if client.Reserved() != 0 {
		t.Fatal("double release corrupted state")
	}
}

func TestReserveAllOrNothing(t *testing.T) {
	a, client, server := admissionRig(t)
	// Pre-load the server so the second component fails.
	if _, err := server.NewSandbox("other", 0.8, 0); err != nil {
		t.Fatal(err)
	}
	_, err := a.Reserve("avis", map[string]resource.Vector{
		"client": {resource.CPU: 0.5},
		"server": {resource.CPU: 0.5},
	})
	if err == nil {
		t.Fatal("oversubscribed reservation admitted")
	}
	// The client-side sandbox created before the failure must be rolled
	// back.
	if client.Reserved() != 0 {
		t.Fatalf("rollback left %.2f reserved on client", client.Reserved())
	}
}

func TestReserveValidation(t *testing.T) {
	a, _, _ := admissionRig(t)
	if _, err := a.Reserve("x", map[string]resource.Vector{
		"mars": {resource.CPU: 0.5},
	}); err == nil {
		t.Fatal("unknown host admitted")
	}
	if _, err := a.Reserve("x", map[string]resource.Vector{
		"client": {resource.Memory: 1 << 20},
	}); err == nil {
		t.Fatal("CPU-less request admitted")
	}
}

func TestAvailable(t *testing.T) {
	a, _, _ := admissionRig(t)
	avail, err := a.Available("client")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avail-sandbox.MaxReservable) > 1e-9 {
		t.Fatalf("available cpu %v", avail)
	}
	r, err := a.Reserve("x", map[string]resource.Vector{"client": {resource.CPU: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	avail, _ = a.Available("client")
	if math.Abs(avail-(sandbox.MaxReservable-0.3)) > 1e-9 {
		t.Fatalf("available cpu after reserve %v", avail)
	}
	if _, err := a.Available("mars"); err == nil {
		t.Fatal("unknown host")
	}
}

func TestAddHostDuplicate(t *testing.T) {
	a, client, _ := admissionRig(t)
	if err := a.AddHost(client); err == nil {
		t.Fatal("duplicate host accepted")
	}
	if len(a.Hosts()) != 2 {
		t.Fatalf("hosts %v", a.Hosts())
	}
	if _, ok := a.Host("client"); !ok {
		t.Fatal("Host lookup")
	}
	if _, ok := a.Host("mars"); ok {
		t.Fatal("phantom host")
	}
}

// ReservePlaced decouples component names from host names: several
// components may land on the same host, and the grant is all-or-nothing
// across every placement.
func TestReservePlacedMultiComponent(t *testing.T) {
	a, client, server := admissionRig(t)
	r, err := a.ReservePlaced("avis", []Placement{
		{Component: "coord", Host: "server", Want: resource.Vector{resource.CPU: 0.1}},
		{Component: "sess-1", Host: "server", Want: resource.Vector{resource.CPU: 0.3}},
		{Component: "sess-2", Host: "client", Want: resource.Vector{resource.CPU: 0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Components(); len(got) != 3 || got[0] != "coord" {
		t.Fatalf("components %v", got)
	}
	if math.Abs(server.Reserved()-0.4) > 1e-9 || math.Abs(client.Reserved()-0.2) > 1e-9 {
		t.Fatalf("reservations client=%.2f server=%.2f", client.Reserved(), server.Reserved())
	}
	r.Release()
	if math.Abs(client.Reserved()) > 1e-9 || math.Abs(server.Reserved()) > 1e-9 {
		t.Fatal("release incomplete")
	}
}

func TestReservePlacedAllOrNothing(t *testing.T) {
	a, client, server := admissionRig(t)
	// The third placement oversubscribes the server: everything rolls back.
	_, err := a.ReservePlaced("avis", []Placement{
		{Component: "a", Host: "client", Want: resource.Vector{resource.CPU: 0.5}},
		{Component: "b", Host: "server", Want: resource.Vector{resource.CPU: 0.6}},
		{Component: "c", Host: "server", Want: resource.Vector{resource.CPU: 0.6}},
	})
	if err == nil {
		t.Fatal("oversubscribed multi-node grant admitted")
	}
	if client.Reserved() != 0 || server.Reserved() != 0 {
		t.Fatalf("rollback left client=%.2f server=%.2f", client.Reserved(), server.Reserved())
	}
	// Duplicate component names are a caller bug, rejected atomically.
	_, err = a.ReservePlaced("avis", []Placement{
		{Component: "a", Host: "client", Want: resource.Vector{resource.CPU: 0.1}},
		{Component: "a", Host: "server", Want: resource.Vector{resource.CPU: 0.1}},
	})
	if err == nil {
		t.Fatal("duplicate component admitted")
	}
	if client.Reserved() != 0 || server.Reserved() != 0 {
		t.Fatal("duplicate-component rollback incomplete")
	}
}

func TestRemoveHost(t *testing.T) {
	a, client, _ := admissionRig(t)
	r, err := a.Reserve("x", map[string]resource.Vector{"client": {resource.CPU: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if !a.RemoveHost("client") {
		t.Fatal("RemoveHost missed a registered host")
	}
	if a.RemoveHost("client") {
		t.Fatal("RemoveHost found a removed host")
	}
	if _, ok := a.Host("client"); ok {
		t.Fatal("removed host still resolvable")
	}
	// The outstanding reservation still releases through its own handle.
	r.Release()
	if client.Reserved() != 0 {
		t.Fatalf("release after RemoveHost left %.2f", client.Reserved())
	}
	if _, err := a.Reserve("y", map[string]resource.Vector{"client": {resource.CPU: 0.1}}); err == nil {
		t.Fatal("reservation on removed host admitted")
	}
}

// Two admitted applications must each receive exactly their reserved share
// (the policing property the reservation exists for).
func TestReservedSharesPoliced(t *testing.T) {
	sim := vtime.NewSim()
	host := sandbox.NewHost(sim, "client", 100e6, sandbox.WithOSLoad(0))
	a := NewAdmission()
	if err := a.AddHost(host); err != nil {
		t.Fatal(err)
	}
	r1, err := a.Reserve("app1", map[string]resource.Vector{"client": {resource.CPU: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Reserve("app2", map[string]resource.Vector{"client": {resource.CPU: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	sb1, _ := r1.Sandbox("client")
	sb2, _ := r2.Sandbox("client")
	var t1, t2 float64
	sim.Spawn("app1", func(p *vtime.Proc) {
		sb1.Compute(p, 50e6)
		t1 = p.Now().Seconds()
	})
	sim.Spawn("app2", func(p *vtime.Proc) {
		sb2.Compute(p, 50e6)
		t2 = p.Now().Seconds()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1-1.0) > 0.03 {
		t.Fatalf("app1 took %.3fs, want ~1s at 50%%", t1)
	}
	if math.Abs(t2-2.0) > 0.05 {
		t.Fatalf("app2 took %.3fs, want ~2s at 25%%", t2)
	}
}
