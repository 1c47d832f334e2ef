package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The source importer type-checks stdlib packages from GOROOT sources and
// caches them per loader, so every test shares one loader.
var (
	loaderOnce sync.Once
	sharedLdr  *Loader
)

func testLoader() *Loader {
	loaderOnce.Do(func() { sharedLdr = NewLoader() })
	return sharedLdr
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	p, err := testLoader().LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return p
}

// want is one expected diagnostic, parsed from a fixture comment of the
// form `// want "regex"` (or the block form `/* want "regex" */` where a
// line comment would collide with a lint directive). The diagnostic must
// land on the comment's exact file and line and match the regex.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var quotedRe = regexp.MustCompile(`"([^"]*)"`)

func collectWants(t *testing.T, p *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				ms := quotedRe.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted regex", pos.Filename, pos.Line)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// checkFixture runs the analyzers over one fixture package and asserts an
// exact one-to-one match between diagnostics and want comments: every
// diagnostic must hit a want at its precise file:line, and every want must
// be hit.
func checkFixture(t *testing.T, fixture string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	p := loadFixture(t, fixture)
	wants := collectWants(t, p)
	diags := Run([]*Package{p}, analyzers)
	for _, d := range diags {
		hit := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.re)
		}
	}
	return diags
}

func TestWallclockFixture(t *testing.T) {
	checkFixture(t, "wallclock", []*Analyzer{NewWallclock(nil)})
}

func TestLockHeldFixture(t *testing.T) {
	checkFixture(t, "lockheld", []*Analyzer{NewLockHeldSend()})
}

func TestMapOrderFixture(t *testing.T) {
	checkFixture(t, "maporder", []*Analyzer{NewMapOrder(nil)})
}

func TestNakedAtomicFixture(t *testing.T) {
	checkFixture(t, "nakedatomic", []*Analyzer{NewNakedAtomic()})
}

// TestStateScope verifies maporder honors its package scope: pointed at
// other packages, its fixture is silent.
func TestStateScope(t *testing.T) {
	diags := Run([]*Package{loadFixture(t, "maporder")}, []*Analyzer{NewMapOrder([]string{"mod/internal/other"})})
	if len(diags) != 0 {
		t.Errorf("out-of-scope package produced %d diagnostics: %v", len(diags), diags)
	}
}

// TestSuppressedReasons proves //lint:ignore justifications survive into
// the JSON schema: RunAll returns each silenced finding with its
// directive's reason, Run stays the unsuppressed projection, and
// SuppressedFindings carries the reason into the Report.
func TestSuppressedReasons(t *testing.T) {
	p := loadFixture(t, "ignore")
	analyzers := []*Analyzer{NewWallclock(nil)}
	diags, sup := RunAll([]*Package{p}, analyzers)
	if len(sup) == 0 {
		t.Fatal("ignore fixture produced no suppressed findings")
	}
	for _, s := range sup {
		if s.Reason == "" {
			t.Errorf("suppressed finding without a reason: %s", s.Diagnostic)
		}
	}
	if plain := Run([]*Package{p}, analyzers); len(plain) != len(diags) {
		t.Errorf("Run returned %d diagnostics, RunAll %d", len(plain), len(diags))
	}
	fs := SuppressedFindings("", sup)
	r := Report{Version: ReportVersion, Findings: []Finding{}, Suppressed: fs}
	b, err := r.WriteJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"reason": "`+sup[0].Reason+`"`) {
		t.Errorf("JSON report does not carry the suppression reason:\n%s", b)
	}
}

// TestIgnoreFixture proves the //lint:ignore machinery end to end: the
// same-line, own-line, and "all" directives suppress their findings (no
// want comment, so any survivor fails as unexpected), a directive naming a
// different analyzer does not, a reason-less directive is itself reported
// alongside the finding it failed to suppress, and so are a directive of
// unknown name, the retired hotpath included, and an ignore naming an
// analyzer outside the suite, a retired one included.
func TestIgnoreFixture(t *testing.T) {
	diags := checkFixture(t, "ignore", []*Analyzer{NewWallclock(nil)})
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["wallclock"] != 2 || byAnalyzer["lint"] != 5 {
		t.Errorf("diagnostic mix = %v, want 2 wallclock + 5 lint", byAnalyzer)
	}
}

// TestWallclockAllowlist verifies path patterns: an exact allowlist entry
// silences the analyzer for the whole package.
func TestWallclockAllowlist(t *testing.T) {
	p := loadFixture(t, "wallclock")
	diags := Run([]*Package{p}, []*Analyzer{NewWallclock([]string{"fixture/wallclock"})})
	if len(diags) != 0 {
		t.Errorf("allowlisted package produced %d diagnostics: %v", len(diags), diags)
	}
}

// TestModuleClean is the self-host gate: the repo's own sources must pass
// every analyzer — the same check cmd/astream-vet runs in CI.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide type-check is slow")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := testLoader().LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range Run(pkgs, ModuleAnalyzers(modPath)) {
		t.Errorf("module not lint-clean: %s", d)
	}
}

// BenchmarkVetFullRepo measures the full analyzer suite over the whole
// module — the cost CI pays per run. The module load (parse + type-check)
// happens once outside the timed loop; each iteration rebuilds the call
// graph and summaries from scratch, which is what RunAll does for a fresh
// invocation.
func BenchmarkVetFullRepo(b *testing.B) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := testLoader().LoadModule(root)
	if err != nil {
		b.Fatalf("loading module: %v", err)
	}
	analyzers := ModuleAnalyzers(modPath)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags, _, _ := RunAllTimed(pkgs, analyzers)
		if len(diags) != 0 {
			b.Fatalf("module not lint-clean: %s", diags[0])
		}
	}
}
