// Command bench is a main package outside cmd/: its uses count, its flags
// are not knobs.
package main

import (
	"flag"
	"fmt"

	"fixture/lib"
)

func main() {
	seconds := flag.Int("seconds", 1, "not counted")
	flag.Parse()
	fmt.Println(*seconds, lib.ForBench())
}
