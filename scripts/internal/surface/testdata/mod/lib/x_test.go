package lib_test

import (
	"testing"

	"fixture/lib"
)

func TestExt(t *testing.T) {
	if lib.ExtOnly() != 2 {
		t.Fatal("fixture")
	}
}
