package steering

import (
	"testing"
	"time"

	"tunable/internal/spec"
	"tunable/internal/vtime"
)

func testApp() *spec.App {
	return spec.MustParse(`
app t;
control_parameters {
    enum c in {lzw, bzw};
    int l in {3, 4};
}
qos_metric { duration t minimize; }
execution_env { host client; host server; }
transition {
    guard ( new.c != cur.c )
    action notify_server;
}
`)
}

func cfg(c string, l int) spec.Config {
	return spec.Config{"c": spec.Enum(c), "l": spec.Int(l)}
}

func TestApplyAtBoundary(t *testing.T) {
	sim := vtime.NewSim()
	a, err := New(sim, testApp(), cfg("lzw", 4))
	if err != nil {
		t.Fatal(err)
	}
	notified := false
	a.OnAction("notify_server", func(p *vtime.Proc, cur, next spec.Config) {
		notified = true
		if cur["c"].S != "lzw" || next["c"].S != "bzw" {
			t.Errorf("handler args %s → %s", cur.Key(), next.Key())
		}
	})
	sim.Spawn("app", func(p *vtime.Proc) {
		// No pending message: nothing happens.
		if _, switched := a.MaybeApply(p); switched {
			t.Error("spurious switch")
		}
		a.Control().Send(p, ControlMsg{Seq: 1, Config: cfg("bzw", 4)})
		cur, switched := a.MaybeApply(p)
		if !switched {
			t.Error("switch did not apply")
		}
		if cur["c"].S != "bzw" {
			t.Errorf("active config %s", cur.Key())
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !notified {
		t.Fatal("transition handler did not run")
	}
	if a.Switches() != 1 {
		t.Fatalf("switches %d", a.Switches())
	}
	ack, ok, ready := a.Acks().TryRecv()
	if !ready || !ok || !ack.Accepted || ack.Seq != 1 {
		t.Fatalf("ack %+v", ack)
	}
}

func TestHandlerNotRunWhenGuardFalse(t *testing.T) {
	sim := vtime.NewSim()
	a, _ := New(sim, testApp(), cfg("lzw", 4))
	notified := false
	a.OnAction("notify_server", func(*vtime.Proc, spec.Config, spec.Config) { notified = true })
	sim.Spawn("app", func(p *vtime.Proc) {
		a.Control().Send(p, ControlMsg{Seq: 1, Config: cfg("lzw", 3)}) // level change only
		a.MaybeApply(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if notified {
		t.Fatal("handler ran despite false guard")
	}
	if a.Current()["l"].I != 3 {
		t.Fatal("switch not applied")
	}
}

func TestSupersededMessages(t *testing.T) {
	sim := vtime.NewSim()
	a, _ := New(sim, testApp(), cfg("lzw", 4))
	sim.Spawn("app", func(p *vtime.Proc) {
		a.Control().Send(p, ControlMsg{Seq: 1, Config: cfg("bzw", 4)})
		a.Control().Send(p, ControlMsg{Seq: 2, Config: cfg("bzw", 3)})
		cur, switched := a.MaybeApply(p)
		if !switched || cur["l"].I != 3 || cur["c"].S != "bzw" {
			t.Errorf("applied %s", cur.Key())
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// First ack: seq 1 superseded; second: seq 2 accepted.
	ack1, _, _ := a.Acks().TryRecv()
	ack2, _, _ := a.Acks().TryRecv()
	if ack1.Accepted || ack1.Seq != 1 || ack1.Reason != "superseded" {
		t.Fatalf("ack1 %+v", ack1)
	}
	if !ack2.Accepted || ack2.Seq != 2 {
		t.Fatalf("ack2 %+v", ack2)
	}
	if a.Switches() != 1 {
		t.Fatalf("switches %d", a.Switches())
	}
}

func TestVetoNegotiation(t *testing.T) {
	sim := vtime.NewSim()
	a, _ := New(sim, testApp(), cfg("lzw", 4))
	a.SetVeto(func(cur, next spec.Config) bool {
		return next["l"].I >= 4 // refuse any resolution below 4
	})
	sim.Spawn("app", func(p *vtime.Proc) {
		a.Control().Send(p, ControlMsg{Seq: 7, Config: cfg("lzw", 3)})
		if _, switched := a.MaybeApply(p); switched {
			t.Error("vetoed switch applied")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	ack, _, _ := a.Acks().TryRecv()
	if ack.Accepted || ack.Seq != 7 {
		t.Fatalf("ack %+v", ack)
	}
	if a.Rejects() != 1 {
		t.Fatalf("rejects %d", a.Rejects())
	}
	if a.Current()["l"].I != 4 {
		t.Fatal("config changed despite veto")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	sim := vtime.NewSim()
	a, _ := New(sim, testApp(), cfg("lzw", 4))
	sim.Spawn("app", func(p *vtime.Proc) {
		a.Control().Send(p, ControlMsg{Seq: 1, Config: spec.Config{"c": spec.Enum("zip"), "l": spec.Int(4)}})
		if _, switched := a.MaybeApply(p); switched {
			t.Error("invalid config applied")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	ack, _, _ := a.Acks().TryRecv()
	if ack.Accepted {
		t.Fatalf("ack %+v", ack)
	}
}

func TestRedundantSwitchRejected(t *testing.T) {
	sim := vtime.NewSim()
	a, _ := New(sim, testApp(), cfg("lzw", 4))
	sim.Spawn("app", func(p *vtime.Proc) {
		a.Control().Send(p, ControlMsg{Seq: 1, Config: cfg("lzw", 4)})
		if _, switched := a.MaybeApply(p); switched {
			t.Error("no-op switch applied")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Switches() != 0 {
		t.Fatal("switch counted")
	}
}

func TestOnApplyCallback(t *testing.T) {
	sim := vtime.NewSim()
	a, _ := New(sim, testApp(), cfg("lzw", 4))
	var gotOld, gotNew spec.Config
	a.OnApply(func(old, new spec.Config) { gotOld, gotNew = old, new })
	sim.Spawn("app", func(p *vtime.Proc) {
		a.Control().Send(p, ControlMsg{Seq: 1, Config: cfg("bzw", 4)})
		a.MaybeApply(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if gotOld == nil || gotOld["c"].S != "lzw" || gotNew["c"].S != "bzw" {
		t.Fatalf("callback args %v %v", gotOld, gotNew)
	}
}

func TestNewRejectsInvalidInitial(t *testing.T) {
	sim := vtime.NewSim()
	if _, err := New(sim, testApp(), spec.Config{"c": spec.Enum("zip"), "l": spec.Int(4)}); err == nil {
		t.Fatal("invalid initial config accepted")
	}
}

func TestCurrentIsCopy(t *testing.T) {
	sim := vtime.NewSim()
	a, _ := New(sim, testApp(), cfg("lzw", 4))
	c := a.Current()
	c["l"] = spec.Int(3)
	if a.Current()["l"].I != 4 {
		t.Fatal("Current aliases internal state")
	}
	_ = time.Second
}

func TestMultipleTransitionsFireIndependently(t *testing.T) {
	app := spec.MustParse(`
app multi;
control_parameters {
    enum c in {lzw, bzw};
    int l in {3, 4};
}
transition { guard ( new.c != cur.c ) action notify_codec; }
transition { guard ( new.l != cur.l ) action notify_level; }
transition { action always_log; }
`)
	sim := vtime.NewSim()
	a, err := New(sim, app, spec.Config{"c": spec.Enum("lzw"), "l": spec.Int(4)})
	if err != nil {
		t.Fatal(err)
	}
	var fired []string
	for _, name := range []string{"notify_codec", "notify_level", "always_log"} {
		name := name
		a.OnAction(name, func(*vtime.Proc, spec.Config, spec.Config) {
			fired = append(fired, name)
		})
	}
	sim.Spawn("app", func(p *vtime.Proc) {
		// Change only the level: codec action must not fire.
		a.Control().Send(p, ControlMsg{Seq: 1, Config: spec.Config{"c": spec.Enum("lzw"), "l": spec.Int(3)}})
		a.MaybeApply(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v", fired)
	}
	has := map[string]bool{}
	for _, f := range fired {
		has[f] = true
	}
	if !has["notify_level"] || !has["always_log"] || has["notify_codec"] {
		t.Fatalf("fired %v", fired)
	}
}
