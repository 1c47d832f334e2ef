// Command astream-vet runs AStream's invariant analyzers over the module:
// event-time purity (wallclock), interprocedural lock discipline
// (lockheld-send), deterministic iteration (maporder) and consistent
// atomics (naked-atomic). Error paths on durable state are guarded by the E
// rows of cmd/astream-mutate instead. It is stdlib-only — go/parser,
// go/types, and go/importer, no x/tools.
//
// Usage:
//
//	astream-vet [-list] [-run name,name] [packages]
//
// Package arguments filter by import-path suffix; "./..." (or no
// argument) means the whole module. -run selects a subset of analyzers by
// name (default all).
//
// Each finding that survives //lint:ignore suppression prints as
// `file:line:col: analyzer: message`, the file relative to the module root.
// Exit status is 0 when none does, 1 when any does, and 2 on a usage or
// load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"astream/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "astream-vet:", err)
		os.Exit(2)
	}
	analyzers := lint.ModuleAnalyzers("astream")
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if sel := *run; sel != "" {
		keep := map[string]bool{}
		for _, n := range strings.Split(sel, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var filtered []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		for n := range keep {
			fmt.Fprintf(os.Stderr, "astream-vet: unknown analyzer %q\n", n)
			os.Exit(2)
		}
		analyzers = filtered
	}

	pkgs, err := lint.NewLoader().LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "astream-vet:", err)
		os.Exit(2)
	}
	if args := flag.Args(); len(args) > 0 && !(len(args) == 1 && args[0] == "./...") {
		pkgs = filterPackages(pkgs, args)
		if len(pkgs) == 0 {
			fmt.Fprintf(os.Stderr, "astream-vet: no packages match %s\n", strings.Join(args, " "))
			os.Exit(2)
		}
	}

	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) {
			file = rel
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", filepath.ToSlash(file), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "astream-vet: %d problem(s)\n", len(diags))
		os.Exit(1)
	}
}

// filterPackages keeps packages whose import path matches an argument: an
// exact path, a suffix (./internal/core), or a "dir/..." wildcard.
func filterPackages(pkgs []*lint.Package, args []string) []*lint.Package {
	var out []*lint.Package
	for _, p := range pkgs {
		for _, arg := range args {
			a := strings.TrimPrefix(arg, "./")
			if strings.HasSuffix(a, "/...") {
				prefix := strings.TrimSuffix(a, "/...")
				if strings.Contains(p.Path+"/", "/"+prefix+"/") || strings.HasPrefix(p.Path, prefix) {
					out = append(out, p)
					break
				}
				continue
			}
			if p.Path == a || strings.HasSuffix(p.Path, "/"+a) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// moduleRoot walks up from the working directory to the first go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
