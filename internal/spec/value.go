// Package spec implements the paper's tunability specification (Section 4):
// control parameters and their domains, the execution environment, QoS
// metrics, tunable task modules, and configuration transitions with guard
// expressions. Applications can be described either programmatically
// through the builder API or in the textual annotation language that
// mirrors Figure 2 of the paper (see Parse).
package spec

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ValueKind discriminates control-parameter value types.
type ValueKind int

// Value kinds.
const (
	IntValue ValueKind = iota
	EnumValue
)

func (k ValueKind) String() string {
	switch k {
	case IntValue:
		return "int"
	case EnumValue:
		return "enum"
	default:
		return fmt.Sprintf("ValueKind(%d)", int(k))
	}
}

// Value is a control-parameter value: an integer or an enumeration symbol.
type Value struct {
	Kind ValueKind
	I    int
	S    string
}

// Int returns an integer value.
func Int(i int) Value { return Value{Kind: IntValue, I: i} }

// Enum returns an enumeration value.
func Enum(s string) Value { return Value{Kind: EnumValue, S: s} }

// String renders the value.
func (v Value) String() string {
	if v.Kind == IntValue {
		return strconv.Itoa(v.I)
	}
	return v.S
}

// Equal reports whether two values are identical in kind and content.
func (v Value) Equal(w Value) bool { return v.Kind == w.Kind && v.I == w.I && v.S == w.S }

// Float returns the numeric interpretation of the value (enums have no
// numeric interpretation and report ok=false).
func (v Value) Float() (float64, bool) {
	if v.Kind == IntValue {
		return float64(v.I), true
	}
	return 0, false
}

// Config is an assignment of values to control parameters — one point in
// the application's configuration space. The paper refers to a Config plus
// the code path it selects as an "application configuration".
type Config map[string]Value

// Clone returns a copy of c.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Equal reports whether two configurations assign identical values to the
// same parameters.
func (c Config) Equal(d Config) bool {
	if len(c) != len(d) {
		return false
	}
	for k, v := range c {
		w, ok := d[k]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// Key renders a canonical, deterministic identifier such as
// "c=lzw,dR=320,l=4"; it is used as the database key and as the task
// instantiation handle (the paper's module[l][dR][c] name-value notation).
func (c Config) Key() string {
	var buf [96]byte
	return string(c.AppendKey(buf[:0]))
}

// AppendKey appends Key's rendering of c to b, so a caller holding a
// buffer can look a configuration up without allocating the key.
func (c Config) AppendKey(b []byte) []byte {
	var buf [8]string
	names := buf[:0]
	for k := range c {
		names = append(names, k)
	}
	slices.Sort(names)
	for i, n := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, n...)
		b = append(b, '=')
		if v := c[n]; v.Kind == IntValue {
			b = strconv.AppendInt(b, int64(v.I), 10)
		} else {
			b = append(b, v.S...)
		}
	}
	return b
}

// ParseConfigKey parses a Key back into a Config, resolving each
// parameter's kind against the application's parameter declarations.
func (a *App) ParseConfigKey(key string) (Config, error) {
	cfg := Config{}
	if key == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(key, ",") {
		nv := strings.SplitN(part, "=", 2)
		if len(nv) != 2 {
			return nil, fmt.Errorf("spec: malformed config key segment %q", part)
		}
		p := a.Param(nv[0])
		if p == nil {
			return nil, fmt.Errorf("spec: unknown parameter %q in config key", nv[0])
		}
		switch p.Kind {
		case IntValue:
			i, err := strconv.Atoi(nv[1])
			if err != nil {
				return nil, fmt.Errorf("spec: parameter %s: %v", nv[0], err)
			}
			cfg[nv[0]] = Int(i)
		case EnumValue:
			cfg[nv[0]] = Enum(nv[1])
		}
	}
	return cfg, nil
}

// Metrics is a measured or predicted set of QoS metric values keyed by
// metric name. Units are seconds for durations and dimensionless for
// levels/ratios; the App's metric declarations record intent.
type Metrics map[string]float64

// Clone returns a copy of m.
func (m Metrics) Clone() Metrics {
	out := make(Metrics, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
