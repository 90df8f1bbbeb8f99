package spec

import (
	"strings"
	"testing"
)

const avisSrc = `
app active_visualization;

control_parameters {
    int dR in {80, 160, 320};   // incremental fovea size
    enum c in {lzw, bzw};       // compression type
    int l in {2, 3, 4};         /* resolution level */
}

execution_env {
    host client;
    host server;
    link net from client to server;
}

qos_metric {
    duration transmit_time minimize;
    duration response_time minimize;
    scalar resolution maximize;
}

task module1 {
    params { dR, c, l }
    uses { client.cpu, client.bandwidth, server.cpu }
    yields { transmit_time, response_time, resolution }
    guard ( l >= 2 )
}

transition {
    guard ( new.c != cur.c )
    action notify_server;
}
`

func TestParseAvis(t *testing.T) {
	app, err := Parse(avisSrc)
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "active_visualization" {
		t.Fatalf("name %q", app.Name)
	}
	if len(app.Params) != 3 {
		t.Fatalf("%d params", len(app.Params))
	}
	dR := app.Param("dR")
	if dR == nil || dR.Kind != IntValue || len(dR.Domain) != 3 || dR.Domain[2].I != 320 {
		t.Fatalf("dR param %+v", dR)
	}
	c := app.Param("c")
	if c == nil || c.Kind != EnumValue || c.Domain[1].S != "bzw" {
		t.Fatalf("c param %+v", c)
	}
	if len(app.Env.Hosts) != 2 || len(app.Env.Links) != 1 {
		t.Fatalf("env %+v", app.Env)
	}
	if app.Env.Links[0].From != "client" || app.Env.Links[0].To != "server" {
		t.Fatalf("link %+v", app.Env.Links[0])
	}
	if len(app.Metrics) != 3 {
		t.Fatalf("%d metrics", len(app.Metrics))
	}
	if m := app.Metric("transmit_time"); m.Unit != "s" || m.Better != LowerIsBetter {
		t.Fatalf("transmit_time %+v", m)
	}
	if m := app.Metric("resolution"); m.Unit != "" || m.Better != HigherIsBetter {
		t.Fatalf("resolution %+v", m)
	}
	task := app.Task("module1")
	if task == nil {
		t.Fatal("no task")
	}
	if len(task.Params) != 3 || len(task.Uses) != 3 || len(task.Yields) != 3 {
		t.Fatalf("task %+v", task)
	}
	if task.Uses[0].Component != "client" || string(task.Uses[0].Kind) != "cpu" {
		t.Fatalf("uses %+v", task.Uses)
	}
	if task.Guard == nil || task.Guard.Source() != " l >= 2 " {
		t.Fatalf("guard %v", task.Guard)
	}
	if len(app.Transitions) != 1 || app.Transitions[0].Action != "notify_server" {
		t.Fatalf("transitions %+v", app.Transitions)
	}
	// The parsed app behaves like the programmatic one.
	if got := len(app.Enumerate()); got != 18 {
		t.Fatalf("enumerate %d", got)
	}
	next := Config{"dR": Int(80), "c": Enum("bzw"), "l": Int(4)}
	cur := with(next, "c", Enum("lzw"))
	if acts := app.TransitionAllowed(cur, next); len(acts) != 1 {
		t.Fatalf("actions %v", acts)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct {
		name string
		src  string
	}{
		{"missing app", "control_parameters { }"},
		{"missing semicolon", "app x\ncontrol_parameters { }"},
		{"bad section", "app x;\nwidgets { }"},
		{"bad param type", "app x;\ncontrol_parameters { float f in {1}; }"},
		{"unterminated domain", "app x;\ncontrol_parameters { int a in {1, ; }"},
		{"bad env component", "app x;\nexecution_env { router r; }"},
		{"link bad host", "app x;\nexecution_env { host a; link l from a to b; }"},
		{"bad metric unit", "app x;\nqos_metric { feet d minimize; }"},
		{"bad direction", "app x;\nqos_metric { duration d sideways; }"},
		{"bad guard", "app x;\ncontrol_parameters { int a in {1}; }\ntask t { params { a } guard ( a + ) }"},
		{"unterminated guard", "app x;\ncontrol_parameters { int a in {1}; }\ntask t { params { a } guard ( a"},
		{"unknown task clause", "app x;\ntask t { wobble { a } }"},
		{"guard unknown ident", "app x;\ncontrol_parameters { int a in {1}; }\ntask t { params { a } guard ( b > 1 ) }"},
	}
	for _, c := range bad {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: Parse accepted", c.name)
		}
	}
}

func TestParseErrorReportsLine(t *testing.T) {
	_, err := Parse("app x;\n\ncontrol_parameters {\n  float f in {1};\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error %q lacks line number", err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParse("nonsense")
}

func TestParseMinimalApp(t *testing.T) {
	app, err := Parse("app tiny;\ncontrol_parameters { int n in {1, 2}; }")
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Enumerate()) != 2 {
		t.Fatal("enumerate")
	}
}

func TestParsedGuardMatchesProgrammatic(t *testing.T) {
	parsed := MustParse(avisSrc)
	prog := avisApp()
	for _, cfg := range prog.Enumerate() {
		pg, err := truth(parsed.Tasks[0].Guard, GuardEnv(cfg))
		if err != nil {
			t.Fatal(err)
		}
		gg, err := truth(prog.Tasks[0].Guard, GuardEnv(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if pg != gg {
			t.Fatalf("guard divergence at %s", cfg.Key())
		}
	}
}
