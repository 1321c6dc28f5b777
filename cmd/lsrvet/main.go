// Command lsrvet is the source-level static analysis gate: it runs the
// internal/srclint suite over this repository's own Go code and exits
// nonzero on any finding, making vm.Program mutation and engine
// dispatch-table drift CI failures instead of latent bugs.
//
// Usage:
//
//	lsrvet                      # run both analyzers against the repo
//	lsrvet -json                # findings as internal/findings JSON
//	lsrvet -analyzers parity    # run a subset (immutable,parity)
//
// Exit codes:
//
//	0  clean
//	1  findings
//	2  usage or analysis error
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/findings"
	"repro/internal/srclint"
)

func main() {
	var (
		root      = flag.String("root", ".", "module root to analyze")
		analyzers = flag.String("analyzers", "", "comma-separated subset to run: immutable,parity (default both)")
		jsonOut   = flag.Bool("json", false, "emit findings as structured JSON")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "lsrvet: unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}

	opts := srclint.DefaultOptions(*root)
	if *analyzers != "" {
		opts.Analyzers = strings.Split(*analyzers, ",")
	}

	res, err := srclint.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lsrvet: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "lsrvet: timing: %s\n", res.Timing)
	if *jsonOut {
		if err := findings.WriteJSON(os.Stdout, res.Report()); err != nil {
			fmt.Fprintf(os.Stderr, "lsrvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range res.Findings {
			if f.File != "" {
				fmt.Printf("%s:%d: %s: %s\n", f.File, f.Line, f.Kind, f.Msg)
			} else {
				fmt.Printf("%s: %s\n", f.Kind, f.Msg)
			}
		}
	}
	if len(res.Findings) > 0 {
		if !*jsonOut {
			fmt.Printf("lsrvet: %d finding(s)\n", len(res.Findings))
		}
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Println("lsrvet: clean")
	}
}
