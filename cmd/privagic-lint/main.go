// Command privagic-lint runs the project's vet-style checks (see
// internal/lint): colorcmp (no direct ir.U / ir.S comparisons outside the
// type-system core), rawsend (no unstamped prt queue messages), rawsleep
// (no bare time.Sleep in the cancelable runtime packages), and docmetric
// (OBSERVABILITY.md and every metric registration site agree on every
// metric and trace-event name).
//
// Usage:
//
//	privagic-lint [dir]
//
// Exits 1 when any issue is found.
package main

import (
	"fmt"
	"os"

	"privagic/internal/lint"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	issues, err := lint.Run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, i := range issues {
		fmt.Println(i)
	}
	if len(issues) > 0 {
		fmt.Fprintf(os.Stderr, "privagic-lint: %d issues\n", len(issues))
		os.Exit(1)
	}
	fmt.Println("privagic-lint: ok")
}
