// Command bench is the repository's benchmark: it builds cmd/predictd from
// the tree, starts the real binary, drives it over loopback HTTP with two
// connections through one of four seeded workload scripts, validates every
// response, and prints every metric by name and unit. README.md in this
// directory is the manual; BENCHMARK.json at the repository root is the
// contract.
//
//	bench run [-workload W] [-seed N] [-seconds S | -epochs E] [-trace 0|1] [-out DIR]
//	bench compare A.jsonl B.jsonl
package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	// A signal must not strand a predictd child.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllChildren()
		os.Exit(130)
	}()
	if len(os.Args) < 2 {
		usage()
	}
	code := 2
	switch os.Args[1] {
	case "run":
		code = runMain(os.Args[2:])
	case "compare":
		code = compareMain(os.Args[2:])
	case "keepawake": // the spinner child a run starts for itself (keepawake.go)
		code = keepAwakeMain()
	default:
		usage()
	}
	stopAllChildren()
	os.Exit(code)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bench run [-workload W] [-seed N] [-seconds S | -epochs E] [-trace 0|1] [-out DIR]")
	fmt.Fprintln(os.Stderr, "       bench compare A.jsonl B.jsonl")
	os.Exit(2)
}
