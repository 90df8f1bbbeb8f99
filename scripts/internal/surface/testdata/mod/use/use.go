// Package use is a library user of package lib.
package use

import (
	"errors"

	"fixture/lib"
)

// Run calls through the module interface.
func Run(d lib.Doer) int { return d.Do() + lib.Shared() }

// All exercises the remaining users' paths.
func All() (int, error) {
	var b lib.Box[int]
	c := lib.Config{Depth: 1}
	lib.WithSize(2)(&c)
	if errors.Is(lib.Err{}, nil) {
		return 0, lib.Err{}
	}
	return Run(lib.Impl{}) + b.Get() + c.Size, nil
}
