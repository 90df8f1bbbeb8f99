// Command specsrc prints a shipped tunability specification, so scripts
// can feed it to tunable-spec: `specsrc avis` prints avis.SpecSource and
// `specsrc video` prints apps.VideoSpecSource.
package main

import (
	"fmt"
	"os"

	"tunable/internal/apps"
	"tunable/internal/avis"
)

func main() {
	src := map[string]string{"avis": avis.SpecSource, "video": apps.VideoSpecSource}
	if len(os.Args) != 2 || src[os.Args[1]] == "" {
		fmt.Fprintln(os.Stderr, "usage: specsrc avis|video")
		os.Exit(2)
	}
	fmt.Print(src[os.Args[1]])
}
