//go:build ignore

// Command gen regenerates sweep_gen.go from the kernel template in
// sweepgen.go.  Run via `go generate ./internal/lanevec`.
package main

import (
	"fmt"
	"os"

	"repro/internal/lanevec"
)

func main() {
	src, err := lanevec.GenerateSweepSource()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile("sweep_gen.go", src, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
