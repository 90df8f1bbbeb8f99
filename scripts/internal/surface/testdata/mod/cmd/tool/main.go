// Command tool is the module's only main package.
package main

import (
	"flag"
	"fmt"

	"fixture/lib"
	"fixture/use"
)

func main() {
	n := flag.Int("n", 1, "count")
	fs := flag.NewFlagSet("sub", flag.ExitOnError)
	name := fs.String("name", "", "name")
	var named lib.Named
	flag.Var(&named, "named", "a flag.Value")
	flag.Parse()
	v, err := use.All()
	fmt.Println(*n, *name, v, err, lib.ForMain(), named)
}
