package spec

import (
	"testing"
)

func evalNum(t *testing.T, src string, env EvalEnv) float64 {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	r, err := e.Eval(env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	f, ok := r.Num()
	if !ok {
		t.Fatalf("eval %q: not numeric", src)
	}
	return f
}

func evalBool(t *testing.T, src string, env EvalEnv) bool {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	b, err := truth(e, env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return b
}

func emptyEnv(string) (Value, bool) { return Value{}, false }

func TestExprArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1 + 2", 3},
		{"2 * 3 + 4", 10},
		{"2 + 3 * 4", 14},
		{"(2 + 3) * 4", 20},
		{"10 / 4", 2.5},
		{"10 % 3", 1},
		{"-5 + 3", -2},
		{"--5", 5},
		{"2 * -3", -6},
		{"1e3 + 1", 1001},
	}
	for _, c := range cases {
		if got := evalNum(t, c.src, emptyEnv); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestExprComparisons(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 4", false},
		{"4 >= 4", true},
		{"1 == 1", true},
		{"1 != 1", false},
		{"1 + 1 == 2", true},
		{"1 < 2 && 2 < 3", true},
		{"1 < 2 && 2 > 3", false},
		{"1 > 2 || 2 < 3", true},
		{"!(1 < 2)", false},
		{"!0", true},
	}
	for _, c := range cases {
		if got := evalBool(t, c.src, emptyEnv); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestExprIdentifiers(t *testing.T) {
	cfg := Config{"dR": Int(320), "c": Enum("lzw"), "l": Int(4)}
	env := GuardEnv(cfg)
	if !evalBool(t, "l >= 2 && dR <= 320", env) {
		t.Error("guard should hold")
	}
	if !evalBool(t, "c == lzw", env) {
		t.Error("enum equality with unquoted literal")
	}
	if !evalBool(t, `c == "lzw"`, env) {
		t.Error("enum equality with quoted literal")
	}
	if evalBool(t, "c == bzw", env) {
		t.Error("enum inequality")
	}
	if evalBool(t, "c == 5", env) {
		t.Error("string vs number must be unequal")
	}
	if got := evalNum(t, "dR * 2", env); got != 640 {
		t.Errorf("dR*2 = %v", got)
	}
}

func TestTransitionEnv(t *testing.T) {
	cur := Config{"c": Enum("lzw"), "l": Int(4)}
	next := Config{"c": Enum("bzw"), "l": Int(4)}
	env := TransitionEnv(cur, next)
	if !evalBool(t, "new.c != cur.c", env) {
		t.Error("codec change should fire")
	}
	if evalBool(t, "new.l != cur.l", env) {
		t.Error("level did not change")
	}
	// Bare identifiers resolve against the current configuration.
	if !evalBool(t, "l == 4", env) {
		t.Error("bare ident in transition env")
	}
}

func TestExprErrors(t *testing.T) {
	bad := []string{
		"1 +",
		"(1 + 2",
		"1 ~ 2",
		`"unterminated`,
		"",
		"1 2",
	}
	for _, src := range bad {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) succeeded", src)
		}
	}
	// Runtime errors.
	for _, src := range []string{"1 / 0", "1 % 0", "lzw + 1", "-lzw"} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := e.Eval(emptyEnv); err == nil {
			t.Errorf("Eval(%q) succeeded", src)
		}
	}
}

func TestExprShortCircuit(t *testing.T) {
	// Short-circuiting skips the erroneous right operand.
	e := mustParseExpr("0 && (1/0)")
	r, err := e.Eval(emptyEnv)
	if err != nil || r.Bool() {
		t.Fatalf("short-circuit && failed: %v %v", r, err)
	}
	e = mustParseExpr("1 || (1/0)")
	r, err = e.Eval(emptyEnv)
	if err != nil || !r.Bool() {
		t.Fatalf("short-circuit || failed: %v %v", r, err)
	}
}

func TestExprIdents(t *testing.T) {
	e := mustParseExpr("new.c != cur.c && dR > 2 || l == 3")
	got := e.Idents()
	want := []string{"cur.c", "dR", "l", "new.c"}
	if len(got) != len(want) {
		t.Fatalf("idents %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("idents %v, want %v", got, want)
		}
	}
}

func TestExprString(t *testing.T) {
	e := mustParseExpr("l >= 2 && dR <= 320")
	if e.Source() != "l >= 2 && dR <= 320" {
		t.Fatalf("source %q", e.Source())
	}
	if e.String() != "((l >= 2) && (dR <= 320))" {
		t.Fatalf("normalized %q", e.String())
	}
}

// mustParseExpr is ParseExpr that panics on error, for declaring guards
// in test fixtures.
func mustParseExpr(src string) *Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

// truth evaluates e and coerces the result to a truth value, as guards
// are read.
func truth(e *Expr, env EvalEnv) (bool, error) {
	r, err := e.Eval(env)
	return r.Bool(), err
}

// with returns a copy of c with parameter name set to v.
func with(c Config, name string, v Value) Config {
	out := c.Clone()
	out[name] = v
	return out
}
