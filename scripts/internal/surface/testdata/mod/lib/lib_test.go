package lib

import "testing"

func TestLib(t *testing.T) {
	var b Box[string]
	b.Put("x")
	if OnlyTests() != 1 || (Err{}).Extra() != 5 || b.Get() != "x" {
		t.Fatal("fixture")
	}
}
