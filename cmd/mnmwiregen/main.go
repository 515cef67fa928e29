// Command mnmwiregen generates the binary payload codecs of the socket
// transport's wire plane (internal/wire).
//
//	go run ./cmd/mnmwiregen ./...   # (re)write wire_codec.go files
//
// For every package with a wire.go, the //mnmwiregen:types directive
// there is the source of truth (mnmvet's wirecodec rule holds the
// package's sends to the same list): one wire_codec.go is emitted next to
// wire.go with a flat binary codec per listed type, and removed where the
// list is empty. mnmvet's wirecodec rule runs the same generator and
// fails on any file that differs from its output, so a stale file cannot
// pass go test ./... or CI. A listed name that is not a concrete type
// declared in the package is an error.
//
// Exit status: 0 written (or already current), 2 usage, load, directive
// or write failure.
//
// If a stale wire_codec.go no longer compiles (e.g. a field was renamed),
// delete it and rerun — generation only needs the type definitions to
// type-check.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/mnm-model/mnm/internal/analysis/loader"
	"github.com/mnm-model/mnm/internal/wiregen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("mnmwiregen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mnmwiregen [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "mnmwiregen: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "mnmwiregen: %v\n", err)
		return 2
	}
	for _, pkg := range pkgs {
		if !wiregen.HasWireFile(pkg) {
			continue
		}
		want, err := wiregen.Generate(pkg)
		if err != nil {
			fmt.Fprintf(stderr, "mnmwiregen: %v\n", err)
			return 2
		}
		path := filepath.Join(pkg.Dir, wiregen.FileName)
		got, readErr := os.ReadFile(path)
		switch {
		case want == nil && readErr == nil:
			// No listed wire types: no codec file belongs here.
			if err := os.Remove(path); err != nil {
				fmt.Fprintf(stderr, "mnmwiregen: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "mnmwiregen: removed %s\n", path)
		case want == nil || bytes.Equal(got, want):
			// Up to date.
		default:
			if err := os.WriteFile(path, want, 0o644); err != nil {
				fmt.Fprintf(stderr, "mnmwiregen: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "mnmwiregen: wrote %s\n", path)
		}
	}
	return 0
}
