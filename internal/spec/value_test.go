package spec

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// legacyKey is the string-joining form Config.Key had before it appended
// into one buffer; performance-database files and WAL profiles are keyed
// on it.
func legacyKey(c Config) string {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + c[n].String()
	}
	return strings.Join(parts, ",")
}

func TestConfigKeyByteIdentical(t *testing.T) {
	configs := []Config{
		{},
		{"c": Enum("lzw")},
		{"c": Enum("lzw"), "dR": Int(320), "l": Int(4)},
		{"n": Int(0), "m": Int(-7), "big": Int(math.MaxInt64), "small": Int(math.MinInt64)},
		{"fps": Int(30), "q": Enum("high"), "empty": Enum("")},
		// more parameters than the stack buffer of names holds
		{"j": Int(10), "i": Int(9), "h": Int(8), "g": Int(7), "f": Int(6), "e": Int(5), "d": Int(4), "c": Int(3), "b": Int(2), "a": Int(1)},
		{"long": Enum(strings.Repeat("x", 200))},
	}
	for _, c := range configs {
		want := legacyKey(c)
		if got := c.Key(); got != want {
			t.Errorf("Key() = %q, want %q", got, want)
		}
		if got := string(c.AppendKey([]byte("k:"))); got != "k:"+want {
			t.Errorf("AppendKey = %q, want %q", got, "k:"+want)
		}
	}
}
