// Command mnmvet machine-checks the repo's own invariants: the rules the
// compiler cannot see but the m&m protocols are only correct under.
//
//	go run ./cmd/mnmvet ./...          # whole repo (what CI's lint job runs)
//	go run ./cmd/mnmvet -list          # describe the rules
//	go run ./cmd/mnmvet -run wirecodec,timerleak ./internal/...
//	go run ./cmd/mnmvet -sarif ./...   # SARIF 2.1.0 (CI uploads this)
//	go run ./cmd/mnmvet -json ./...    # flat JSON findings
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
//
// The six rules (see DESIGN.md "Machine-checked invariants"):
//
//	simdeterminism  no wall clock / global rand in deterministic packages
//	wirecodec       every wire-crossing type is listed in wire.go and has a current generated codec
//	lockedblocking  no blocking work while a mutex is held (sees through calls)
//	timerleak       no time.After in loops, no time.Tick
//	stopselect      channel waits in rt/transport are stop-interruptible
//	lockorder       the cross-package lock-acquisition graph stays acyclic
//
// lockedblocking and lockorder run on interprocedural effect
// summaries: a package-level call graph with per-function effects
// propagated bottom-up over SCCs, so a blocking call or lock nesting
// hidden behind a helper is still seen.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/analysis/loader"
	"github.com/mnm-model/mnm/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("mnmvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0 on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mnmvet [-list] [-run rules] [-json|-sarif] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintf(stderr, "mnmvet: -json and -sarif are mutually exclusive\n")
		return 2
	}
	analyzers := suite.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "mnmvet: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "mnmvet: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "mnmvet: %v\n", err)
		return 2
	}
	broken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			broken = true
			fmt.Fprintf(stderr, "mnmvet: %s: %v\n", pkg.ImportPath, terr)
		}
	}
	if broken {
		return 2
	}
	diags := analysis.CheckAll(pkgs, analyzers...)
	root, err := loader.ModuleRoot(cwd)
	if err != nil {
		root = cwd
	}
	switch {
	case *jsonOut:
		if err := emitJSON(stdout, root, diags); err != nil {
			fmt.Fprintf(stderr, "mnmvet: %v\n", err)
			return 2
		}
	case *sarifOut:
		// Emitted even when clean: CI uploads the file unconditionally.
		if err := emitSARIF(stdout, root, analyzers, diags); err != nil {
			fmt.Fprintf(stderr, "mnmvet: %v\n", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "mnmvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
