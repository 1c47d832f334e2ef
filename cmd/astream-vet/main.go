// Command astream-vet runs AStream's invariant analyzers over the module:
// event-time purity (wallclock), interprocedural lock discipline
// (lockheld-send), deterministic iteration (maporder) and consistent
// atomics (naked-atomic). Error paths on durable state are guarded by the E
// rows of cmd/astream-mutate instead. It is stdlib-only — go/parser,
// go/types, and go/importer, no x/tools.
//
// Usage:
//
//	astream-vet [-list] [-run name,name] [-format text|json] [-timing]
//	            [-baseline file] [-write-baseline file] [packages]
//
// Package arguments filter by import-path suffix; "./..." (or no
// argument) means the whole module.
//
// -run selects a subset of analyzers by name (default all). -format json
// emits the stable machine-readable schema (see internal/lint.Report):
// analyzer, repo-relative file, line/col, message, the witness call chain
// for interprocedural findings, and the //lint:ignore-suppressed findings
// with their stated reasons.
// -baseline subtracts a committed findings file so CI fails only on new
// findings (matched by analyzer+file+message, line-insensitive);
// -write-baseline records the current findings as that file (suppressions
// excluded — they are not regressions). -timing prints each analyzer's
// wall-clock cost to stderr. Exit status is 1 when any non-baselined
// diagnostic survives //lint:ignore suppression.
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
	format := flag.String("format", "text", "output format: text or json")
	baseline := flag.String("baseline", "", "baseline findings file to subtract (fail only on new findings)")
	writeBaseline := flag.String("write-baseline", "", "write current findings to this baseline file and exit")
	timing := flag.Bool("timing", false, "print per-analyzer wall-clock timings to stderr")
	flag.Parse()

	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "astream-vet: unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}

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

	diags, suppressed, timings := lint.RunAllTimed(pkgs, analyzers)
	if *timing {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "astream-vet: %-14s %8.1fms\n", tm.Name, float64(tm.Elapsed.Microseconds())/1000)
		}
	}
	report := lint.NewReport(root, diags)

	if *writeBaseline != "" {
		b, err := report.WriteJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "astream-vet:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*writeBaseline, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "astream-vet:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "astream-vet: wrote %d finding(s) to %s\n", len(report.Findings), *writeBaseline)
		return
	}

	findings := report.Findings
	if *baseline != "" {
		base, err := lint.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "astream-vet:", err)
			os.Exit(2)
		}
		findings = report.Subtract(base)
	}

	if *format == "json" {
		out := lint.Report{
			Version:    lint.ReportVersion,
			Findings:   findings,
			Suppressed: lint.SuppressedFindings(root, suppressed),
		}
		b, err := out.WriteJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "astream-vet:", err)
			os.Exit(2)
		}
		os.Stdout.Write(b)
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "astream-vet: %d problem(s)\n", len(findings))
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
