// Package lib declares one exported name per rule the surface scanner
// applies; lib_test.go and the other packages of this module use them.
package lib

import "flag"

// verbose is a flag outside cmd/, which is not a knob.
var verbose = flag.Bool("verbose", false, "not counted")

// OnlyTests is used only by lib_test.go.
func OnlyTests() int { return 1 }

// ExtOnly is used only by the external test package.
func ExtOnly() int { return 2 }

// Shared is used by package use.
func Shared() int { return inside() }

// ForMain is used only by the main package cmd/tool.
func ForMain() int { return 3 }

// ForBench is used only by the main package bench, outside cmd/.
func ForBench() int { return 9 }

// Inside is used only inside this package.
func Inside() int { return 4 }

func inside() int { return Inside() }

// Err is an error type: Error is reached through error, Is through
// errors.Is; Extra is reached only by a test, Unreached by nothing.
type Err struct{}

func (Err) Error() string        { return "err" }
func (Err) Is(target error) bool { return target == nil }
func (Err) Extra() int           { return 5 }
func (Err) Unreached() string    { return "u" }

// Named is a fmt.Stringer and a flag.Value.
type Named struct{}

func (n Named) String() string      { return "named" }
func (n *Named) Set(s string) error { return nil }

var _ flag.Value = (*Named)(nil)

// Doer is a module interface; Impl.Do is reached through it.
type Doer interface{ Do() int }

// Impl implements Doer.
type Impl struct{}

func (Impl) Do() int   { return 6 }
func (Impl) Skip() int { return 7 }

// Asserted appears only in a compile-time assertion.
type Asserted struct{}

func (Asserted) Do() int { return 8 }

var _ Doer = (*Asserted)(nil)

// Box is generic: Get is reached through an instantiation, Put by a test.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T   { return b.v }
func (b *Box[T]) Put(v T) { b.v = v }

// Option and WithSize are a functional option (a knob).
type Option func(*Config)

// WithSize sets Config.Size.
func WithSize(n int) Option { return func(c *Config) { c.Size = n } }

// Config has two exported fields (knobs) and one unexported.
type Config struct {
	Size, Depth int
	hidden      int
}
