// Package lint is AStream's from-scratch static-analysis framework: a
// stdlib-only (go/parser + go/ast + go/types + go/importer) vet-style
// harness enforcing engine invariants the Go type system cannot express —
// event-time purity, lock discipline around shared state, deterministic
// iteration on encode paths, goroutine-teardown hygiene, and consistent
// atomic access. The driver lives in cmd/astream-vet; each analyzer is a
// pluggable unit implementing Analyzer.
//
// Diagnostics may be suppressed in source with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed either on the offending line or alone on the line directly above
// it. The reason is mandatory; a directive without one is itself reported.
// The analyzer list may be "all" to match any analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Package is one loaded, type-checked package as seen by analyzers.
type Package struct {
	// Path is the package's import path (fixtures use a synthetic path).
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Fset positions every token of Files.
	Fset *token.FileSet
	// Files are the parsed sources, comments included.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the use/def/type maps produced by the checker.
	Info *types.Info
	// Src maps filename to raw source bytes (directive parsing).
	Src map[string][]byte
}

// Diagnostic is one finding, anchored to an exact source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Chain is the call chain behind an interprocedural finding, outermost
	// first (empty for intraprocedural findings). The human-readable Message
	// already embeds it; Chain is the machine-readable copy for -format json.
	Chain []string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one pluggable invariant check. Exactly one of Run and
// RunModule is set: Run sees one package at a time; RunModule sees the
// whole load at once with the shared call graph, which is what the
// interprocedural analyzer (lockheld-send) needs.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects a package and returns raw findings; suppression is
	// applied by the framework afterwards.
	Run func(p *Package) []Diagnostic
	// RunModule inspects every loaded package at once, with access to the
	// module call graph and function summaries.
	RunModule func(m *Module) []Diagnostic
}

// Module is one whole analysis scope: every package of a load, plus the
// lazily built call graph and per-function blocking summaries shared by
// the interprocedural analyzers.
type Module struct {
	Pkgs []*Package

	graph *CallGraph
	sums  map[*CGNode]*BlockSummary
}

// NewModule wraps a set of loaded packages into one analysis scope.
func NewModule(pkgs []*Package) *Module { return &Module{Pkgs: pkgs} }

// Graph returns the module call graph, building it on first use.
func (m *Module) Graph() *CallGraph {
	if m.graph == nil {
		m.graph = BuildCallGraph(m.Pkgs)
	}
	return m.graph
}

// BlockSummaries returns the per-function may-block summaries, computing
// them on first use.
func (m *Module) BlockSummaries() map[*CGNode]*BlockSummary {
	if m.sums == nil {
		m.sums = ComputeBlockSummaries(m.Graph())
	}
	return m.sums
}

// Diag builds a Diagnostic for the analyzer at pos.
func (a *Analyzer) Diag(p *Package, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{Analyzer: a.Name, Pos: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...)}
}

// ignoreDirective is one well-formed //lint:ignore directive.
type ignoreDirective struct {
	*directive
	analyzers []string
	reason    string
}

// collectIgnores interprets every //lint:ignore directive in the package.
// Malformed directives (no reason) and directives of unknown name are
// returned as diagnostics so they cannot silently rot.
func collectIgnores(p *Package) ([]ignoreDirective, []Diagnostic) {
	var dirs []ignoreDirective
	bad := unknownDirectives(p)
	for _, d := range parseDirectives(p, "ignore") {
		names, reason := d.split()
		if reason == "" {
			bad = append(bad, d.missingReason("lint"))
			continue
		}
		dirs = append(dirs, ignoreDirective{d, strings.Split(names, ","), reason})
	}
	return dirs, bad
}

// suppressReason returns the reason of the first directive covering d,
// and whether any directive does.
func suppressReason(d Diagnostic, dirs []ignoreDirective) (string, bool) {
	for _, dir := range dirs {
		if !dir.covers(d.Pos) {
			continue
		}
		for _, name := range dir.analyzers {
			if name == "all" || name == d.Analyzer {
				return dir.reason, true
			}
		}
	}
	return "", false
}

// SuppressedDiagnostic is a diagnostic silenced by a //lint:ignore
// directive, together with the directive's stated reason. Suppressions are
// reported alongside live findings in -format json so the justifications
// stay auditable without grepping the source.
type SuppressedDiagnostic struct {
	Diagnostic
	Reason string
}

// Run executes every analyzer over every package, applies //lint:ignore
// suppression, and returns the surviving diagnostics in file/line order.
// Module analyzers (RunModule) execute once over the whole load.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunAll(pkgs, analyzers)
	return diags
}

// RunAll is Run plus the suppressed diagnostics: every finding silenced by
// a //lint:ignore directive is returned separately with the directive's
// reason, in the same file/line order.
func RunAll(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []SuppressedDiagnostic) {
	diags, sup, _ := RunAllTimed(pkgs, analyzers)
	return diags, sup
}

// AnalyzerTiming is one analyzer's wall-clock cost over a RunAllTimed
// invocation, summed across packages (and the module pass for module
// analyzers). Shared infrastructure built lazily — the call graph and block
// summaries — is billed to the first analyzer that demands it.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunAllTimed is RunAll plus per-analyzer timings, in the analyzers'
// given order.
func RunAllTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []SuppressedDiagnostic, []AnalyzerTiming) {
	var out []Diagnostic
	var sup []SuppressedDiagnostic
	var allDirs []ignoreDirective
	elapsed := make(map[string]time.Duration, len(analyzers))
	keep := func(d Diagnostic, dirs []ignoreDirective) {
		if reason, ok := suppressReason(d, dirs); ok {
			sup = append(sup, SuppressedDiagnostic{Diagnostic: d, Reason: reason})
		} else {
			out = append(out, d)
		}
	}
	for _, p := range pkgs {
		dirs, bad := collectIgnores(p)
		out = append(out, bad...)
		allDirs = append(allDirs, dirs...)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			//lint:ignore wallclock analyzer timing instrumentation, not event-time logic
			start := time.Now()
			ds := a.Run(p)
			//lint:ignore wallclock analyzer timing instrumentation, not event-time logic
			elapsed[a.Name] += time.Since(start)
			for _, d := range ds {
				keep(d, dirs)
			}
		}
	}
	mod := NewModule(pkgs)
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		//lint:ignore wallclock analyzer timing instrumentation, not event-time logic
		start := time.Now()
		ds := a.RunModule(mod)
		//lint:ignore wallclock analyzer timing instrumentation, not event-time logic
		elapsed[a.Name] += time.Since(start)
		for _, d := range ds {
			keep(d, allDirs)
		}
	}
	var timings []AnalyzerTiming
	for _, a := range analyzers {
		timings = append(timings, AnalyzerTiming{Name: a.Name, Elapsed: elapsed[a.Name]})
	}
	byPos := func(a, b Diagnostic) bool {
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	}
	sort.Slice(out, func(i, j int) bool { return byPos(out[i], out[j]) })
	sort.Slice(sup, func(i, j int) bool { return byPos(sup[i].Diagnostic, sup[j].Diagnostic) })
	return out, sup, timings
}

// pathMatches reports whether an import path matches any pattern. A
// pattern matches exactly, or as a prefix when it ends in "/..." .
func pathMatches(path string, patterns []string) bool {
	for _, pat := range patterns {
		if strings.HasSuffix(pat, "/...") {
			if path == strings.TrimSuffix(pat, "/...") || strings.HasPrefix(path, strings.TrimSuffix(pat, "...")) {
				return true
			}
			continue
		}
		if path == pat {
			return true
		}
	}
	return false
}
