package spec

import (
	"sort"
	"testing"

	"tunable/internal/resource"
)

// avisApp builds the active-visualization specification programmatically.
func avisApp() *App {
	return &App{
		Name: "active_visualization",
		Params: []Param{
			{Name: "dR", Kind: IntValue, Domain: []Value{Int(80), Int(160), Int(320)}},
			{Name: "c", Kind: EnumValue, Domain: []Value{Enum("lzw"), Enum("bzw")}},
			{Name: "l", Kind: IntValue, Domain: []Value{Int(2), Int(3), Int(4)}},
		},
		Env: Env{
			Hosts: []HostDecl{{Name: "client"}, {Name: "server"}},
			Links: []LinkDecl{{Name: "net", From: "client", To: "server"}},
		},
		Metrics: []MetricDecl{
			{Name: "transmit_time", Unit: "s", Better: LowerIsBetter},
			{Name: "response_time", Unit: "s", Better: LowerIsBetter},
			{Name: "resolution", Better: HigherIsBetter},
		},
		Tasks: []Task{{
			Name:   "module1",
			Params: []string{"dR", "c", "l"},
			Uses: []ResourceRef{
				{Component: "client", Kind: resource.CPU},
				{Component: "client", Kind: resource.Bandwidth},
			},
			Yields: []string{"transmit_time", "response_time", "resolution"},
			Guard:  mustParseExpr("l >= 2"),
		}},
		Transitions: []Transition{{
			Guard:  mustParseExpr("new.c != cur.c"),
			Action: "notify_server",
		}},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := avisApp().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*App)
	}{
		{"no name", func(a *App) { a.Name = "" }},
		{"dup param", func(a *App) { a.Params = append(a.Params, a.Params[0]) }},
		{"empty domain", func(a *App) { a.Params[0].Domain = nil }},
		{"kind mismatch", func(a *App) { a.Params[0].Domain = []Value{Enum("x")} }},
		{"dup host", func(a *App) { a.Env.Hosts = append(a.Env.Hosts, HostDecl{Name: "client"}) }},
		{"bad link", func(a *App) { a.Env.Links[0].To = "nowhere" }},
		{"dup metric", func(a *App) { a.Metrics = append(a.Metrics, a.Metrics[0]) }},
		{"dup task", func(a *App) { a.Tasks = append(a.Tasks, a.Tasks[0]) }},
		{"unknown task param", func(a *App) { a.Tasks[0].Params = []string{"nope"} }},
		{"unknown component", func(a *App) { a.Tasks[0].Uses[0].Component = "mars" }},
		{"unknown metric", func(a *App) { a.Tasks[0].Yields = []string{"nope"} }},
		{"bad task guard ident", func(a *App) { a.Tasks[0].Guard = mustParseExpr("zz > 1") }},
		{"cur in task guard", func(a *App) { a.Tasks[0].Guard = mustParseExpr("cur.l > 1") }},
		{"bad transition ident", func(a *App) { a.Transitions[0].Guard = mustParseExpr("new.zz != 1") }},
	}
	for _, m := range mutations {
		a := avisApp()
		m.mut(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", m.name)
		}
	}
}

func TestEnumerate(t *testing.T) {
	a := avisApp()
	cfgs := a.Enumerate()
	if len(cfgs) != 3*2*3 {
		t.Fatalf("enumerated %d configs, want 18", len(cfgs))
	}
	// Deterministic order: last parameter varies fastest.
	if cfgs[0].Key() != "c=lzw,dR=80,l=2" {
		t.Fatalf("first config %s", cfgs[0].Key())
	}
	if cfgs[1].Key() != "c=lzw,dR=80,l=3" {
		t.Fatalf("second config %s", cfgs[1].Key())
	}
	if cfgs[17].Key() != "c=bzw,dR=320,l=4" {
		t.Fatalf("last config %s", cfgs[17].Key())
	}
	// All distinct.
	seen := map[string]bool{}
	for _, c := range cfgs {
		k := c.Key()
		if seen[k] {
			t.Fatalf("duplicate config %s", k)
		}
		seen[k] = true
	}
}

func TestRunnableConfigsFiltersGuards(t *testing.T) {
	a := avisApp()
	a.Tasks[0].Guard = mustParseExpr("l >= 3")
	got := a.RunnableConfigs()
	if len(got) != 3*2*2 {
		t.Fatalf("runnable %d, want 12", len(got))
	}
	for _, c := range got {
		if c["l"].I < 3 {
			t.Fatalf("config %s violates guard", c.Key())
		}
	}
}

func TestTransitionAllowed(t *testing.T) {
	a := avisApp()
	cur := Config{"dR": Int(80), "c": Enum("lzw"), "l": Int(4)}
	next := with(cur, "c", Enum("bzw"))
	actions := a.TransitionAllowed(cur, next)
	if len(actions) != 1 || actions[0] != "notify_server" {
		t.Fatalf("actions %v", actions)
	}
	// No codec change → no action.
	if acts := a.TransitionAllowed(cur, with(cur, "l", Int(3))); len(acts) != 0 {
		t.Fatalf("unexpected actions %v", acts)
	}
	// Guard-less transitions always fire.
	a.Transitions = append(a.Transitions, Transition{Action: "always"})
	if acts := a.TransitionAllowed(cur, cur); len(acts) != 1 || acts[0] != "always" {
		t.Fatalf("actions %v", acts)
	}
}

func TestValidateConfig(t *testing.T) {
	a := avisApp()
	good := Config{"dR": Int(80), "c": Enum("lzw"), "l": Int(4)}
	if err := a.ValidateConfig(good); err != nil {
		t.Fatal(err)
	}
	if err := a.ValidateConfig(with(good, "l", Int(99))); err == nil {
		t.Fatal("out-of-domain value accepted")
	}
	missing := good.Clone()
	delete(missing, "c")
	if err := a.ValidateConfig(missing); err == nil {
		t.Fatal("missing parameter accepted")
	}
	if err := a.ValidateConfig(with(good, "extra", Int(1))); err == nil {
		t.Fatal("extra parameter accepted")
	}
}

func TestConfigKeyRoundTrip(t *testing.T) {
	a := avisApp()
	for _, cfg := range a.Enumerate() {
		parsed, err := a.ParseConfigKey(cfg.Key())
		if err != nil {
			t.Fatal(err)
		}
		if !parsed.Equal(cfg) {
			t.Fatalf("round trip %s → %s", cfg.Key(), parsed.Key())
		}
	}
	if _, err := a.ParseConfigKey("bogus"); err == nil {
		t.Fatal("malformed key accepted")
	}
	if _, err := a.ParseConfigKey("zz=1"); err == nil {
		t.Fatal("unknown parameter accepted")
	}
	if _, err := a.ParseConfigKey("dR=abc"); err == nil {
		t.Fatal("non-integer for int parameter accepted")
	}
}

func TestConfigOps(t *testing.T) {
	c := Config{"a": Int(1)}
	d := with(c, "b", Enum("x"))
	if len(c) != 1 {
		t.Fatal("With mutated original")
	}
	if !d.Equal(Config{"a": Int(1), "b": Enum("x")}) {
		t.Fatal("With result")
	}
	if c.Equal(d) {
		t.Fatal("different sizes equal")
	}
	if c.Equal(Config{"a": Int(2)}) {
		t.Fatal("different values equal")
	}
	if c.Equal(Config{"z": Int(1)}) {
		t.Fatal("different keys equal")
	}
	cl := d.Clone()
	cl["a"] = Int(9)
	if d["a"].I != 1 {
		t.Fatal("Clone aliases")
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(5).String() != "5" || Enum("x").String() != "x" {
		t.Fatal("String")
	}
	if f, ok := Int(5).Float(); !ok || f != 5 {
		t.Fatal("Float of int")
	}
	if _, ok := Enum("x").Float(); ok {
		t.Fatal("Float of enum")
	}
	if IntValue.String() != "int" || EnumValue.String() != "enum" {
		t.Fatal("kind names")
	}
	if LowerIsBetter.String() != "minimize" || HigherIsBetter.String() != "maximize" {
		t.Fatal("direction names")
	}
}

func TestMetricsClone(t *testing.T) {
	m := Metrics{"a": 1}
	c := m.Clone()
	c["a"] = 2
	if m["a"] != 1 {
		t.Fatal("Clone aliases")
	}
}

func TestLookupHelpers(t *testing.T) {
	a := avisApp()
	if a.Param("dR") == nil || a.Param("zz") != nil {
		t.Fatal("Param lookup")
	}
	if a.Metric("resolution") == nil || a.Metric("zz") != nil {
		t.Fatal("Metric lookup")
	}
	if a.Task("module1") == nil || a.Task("zz") != nil {
		t.Fatal("Task lookup")
	}
	if a.Env.Host("client") == nil || a.Env.Host("zz") != nil {
		t.Fatal("Host lookup")
	}
	if a.Env.Link("net") == nil || a.Env.Link("zz") != nil {
		t.Fatal("Link lookup")
	}
	names := a.ParamNames()
	if len(names) != 3 || names[0] != "dR" {
		t.Fatalf("ParamNames %v", names)
	}
	var mnames []string
	for _, m := range a.Metrics {
		mnames = append(mnames, m.Name)
	}
	if sort.Strings(mnames); len(mnames) != 3 || mnames[0] != "resolution" {
		t.Fatalf("metric names %v", mnames)
	}
}

func TestTaskDAG(t *testing.T) {
	dag := MustParse(`
app pipeline;
control_parameters { int n in {1}; }
execution_env { host h; }
qos_metric { duration t minimize; }
task fetch { params { n } next { decode, log } }
task decode { next { display } }
task display { }
task log { }
`)
	order, err := dag.TaskOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if len(order) != 4 {
		t.Fatalf("order %v", order)
	}
	if !(pos["fetch"] < pos["decode"] && pos["decode"] < pos["display"] && pos["fetch"] < pos["log"]) {
		t.Fatalf("topological order violated: %v", order)
	}
}

func TestTaskDAGRejectsCycles(t *testing.T) {
	bad := []string{
		// direct cycle
		`app x; task a { next { b } } task b { next { a } }`,
		// self loop
		`app x; task a { next { a } }`,
		// unknown successor
		`app x; task a { next { ghost } }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestTaskDAGFormatRoundTrip(t *testing.T) {
	src := `
app pipeline;
task fetch { next { decode } }
task decode { }
`
	app := MustParse(src)
	back, err := Parse(app.Format())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Task("fetch").Next) != 1 || back.Task("fetch").Next[0] != "decode" {
		t.Fatalf("next lost: %+v", back.Task("fetch"))
	}
}
