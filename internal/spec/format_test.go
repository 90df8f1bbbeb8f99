package spec

import (
	"strings"
	"testing"
)

func TestFormatRoundTrip(t *testing.T) {
	orig := MustParse(avisSrc)
	formatted := orig.Format()
	back, err := Parse(formatted)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, formatted)
	}
	if back.Name != orig.Name {
		t.Fatalf("name %q", back.Name)
	}
	if len(back.Params) != len(orig.Params) {
		t.Fatalf("params %d vs %d", len(back.Params), len(orig.Params))
	}
	for i := range orig.Params {
		if back.Params[i].Name != orig.Params[i].Name || back.Params[i].Kind != orig.Params[i].Kind {
			t.Fatalf("param %d differs", i)
		}
		for j := range orig.Params[i].Domain {
			if !back.Params[i].Domain[j].Equal(orig.Params[i].Domain[j]) {
				t.Fatalf("param %d domain %d differs", i, j)
			}
		}
	}
	if len(back.Env.Hosts) != 2 || len(back.Env.Links) != 1 {
		t.Fatalf("env %+v", back.Env)
	}
	if len(back.Metrics) != 3 || len(back.Tasks) != 1 || len(back.Transitions) != 1 {
		t.Fatalf("sections %d %d %d", len(back.Metrics), len(back.Tasks), len(back.Transitions))
	}
	// Guard semantics preserved across the round trip.
	for _, cfg := range orig.Enumerate() {
		g1, err1 := truth(orig.Tasks[0].Guard, GuardEnv(cfg))
		g2, err2 := truth(back.Tasks[0].Guard, GuardEnv(cfg))
		if err1 != nil || err2 != nil || g1 != g2 {
			t.Fatalf("guard diverges at %s", cfg.Key())
		}
	}
	// Transition guard too.
	cur := Config{"dR": Int(80), "c": Enum("lzw"), "l": Int(4)}
	next := with(cur, "c", Enum("bzw"))
	if len(back.TransitionAllowed(cur, next)) != 1 {
		t.Fatal("transition guard lost")
	}
	// Format is stable (idempotent).
	if back.Format() != formatted {
		t.Fatal("Format not idempotent")
	}
}

func TestFormatMinimal(t *testing.T) {
	app := MustParse("app tiny;\ncontrol_parameters { int n in {1}; }")
	out := app.Format()
	if !strings.Contains(out, "app tiny;") || !strings.Contains(out, "int n in {1};") {
		t.Fatalf("format:\n%s", out)
	}
	if _, err := Parse(out); err != nil {
		t.Fatal(err)
	}
}

func TestFormatNormalizedGuard(t *testing.T) {
	app := avisApp() // programmatic: guards built by mustParseExpr have sources
	out := app.Format()
	if !strings.Contains(out, "guard ( l >= 2 )") {
		t.Fatalf("guard source lost:\n%s", out)
	}
}
