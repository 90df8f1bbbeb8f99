package main

import (
	"reflect"
	"testing"
)

// The fixture module declares one name per rule: names only a test uses
// (in-package and external), names another package or only a main
// package uses (under cmd/ or, like bench/, outside it), error, Stringer
// and flag.Value methods, an Is method, a blank interface assertion, a
// method only a module interface reaches, a generic type, a With* option,
// flags inside and outside cmd/ (a flag.Int, a FlagSet method and a
// flag.Var, whose name is its second argument), and a Config struct.
var fixture = &Report{
	Counts:   map[string]int{"outside-unused": 6, "test-only": 3, "test-only-methods": 4, "knobs": 6},
	Inside:   []string{"lib.Inside", "lib.Option", "use.Run"},
	TestOnly: []string{"lib.Asserted", "lib.ExtOnly", "lib.OnlyTests"},
	Methods:  []string{"lib.Box.Put", "lib.Err.Extra", "lib.Err.Unreached", "lib.Impl.Skip"},
	Knobs:    []string{"lib.Config.Depth", "lib.Config.Size", "lib.WithSize", "tool:-n", "tool:-name", "tool:-named"},
}

func scanFixture(t *testing.T) *Report {
	t.Helper()
	r, err := Scan("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFixtureReport(t *testing.T) {
	if r := scanFixture(t); !reflect.DeepEqual(r, fixture) {
		t.Fatalf("report %+v\nwant %+v", r, fixture)
	}
}

func TestCheck(t *testing.T) {
	r := scanFixture(t)
	const kept = "keep lib.Asserted a\nkeep lib.ExtOnly b\nkeep lib.OnlyTests c\n"
	for _, tc := range []struct {
		name, file string
		problems   int
	}{
		{"at the limits", "# comment\noutside-unused 6\ntest-only 3\ntest-only-methods 4\nknobs 6\n" + kept, 0},
		{"below the limits", "outside-unused 9\ntest-only 9\ntest-only-methods 9\nknobs 9\n" + kept, 0},
		{"counters rose", "outside-unused 5\ntest-only 2\ntest-only-methods 3\nknobs 5\n" + kept, 4},
		{"limit lines missing", "knobs 6\n" + kept, 3},
		{"names not kept", "outside-unused 6\ntest-only 3\ntest-only-methods 4\nknobs 6\nkeep lib.Asserted\n", 3},
	} {
		if got := r.Check([]byte(tc.file)); len(got) != tc.problems {
			t.Errorf("%s: problems %q, want %d", tc.name, got, tc.problems)
		}
	}
}
