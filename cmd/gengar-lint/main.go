// Command gengar-lint runs the Gengar invariant analyzers (see
// internal/analysis) over the module: lock-across-blocking,
// hotpath-alloc and errcheck-core, plus validation of
// //gengar:lint-ignore directives themselves.
//
// Usage:
//
//	gengar-lint [-json] [-C dir] [packages]
//
// Packages are go-list patterns resolved against the module root and
// default to ./... (e.g. `gengar-lint ./internal/engine/...` checks one
// subtree). Exit status: 0 clean, 1 findings, 2 operational error. With
// -json each finding is one JSON object on its own line (file, line,
// col, analyzer, message) for CI annotation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gengar/internal/analysis"
)

func main() {
	os.Exit(run())
}

func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "usage: gengar-lint [-json] [-C dir] [packages]\n\n")
	fmt.Fprintf(out, "Packages are go-list patterns (default ./...), resolved against the module root.\n\n")
	flag.PrintDefaults()
	fmt.Fprintf(out, "\nanalyzers:\n")
	for _, a := range analysis.Analyzers() {
		fmt.Fprintf(out, "  %-21s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(out, "\nexit status: 0 clean, 1 findings, 2 operational error\n")
}

func run() int {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as JSON lines")
		dir     = flag.String("C", ".", "module directory to analyze")
	)
	flag.Usage = usage
	flag.Parse()
	patterns := flag.Args()

	loader, err := analysis.NewLoader(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gengar-lint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gengar-lint: %v\n", err)
		return 2
	}
	findings := analysis.Run(pkgs)
	if len(findings) == 0 {
		return 0
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, f := range findings {
			if err := enc.Encode(f); err != nil {
				fmt.Fprintf(os.Stderr, "gengar-lint: %v\n", err)
				return 2
			}
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
		fmt.Fprintf(os.Stderr, "gengar-lint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
	}
	return 1
}
