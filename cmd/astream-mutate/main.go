// Command astream-mutate runs the mutation rows of rows.json, the standing
// guard for what the tests must catch (DESIGN.md §13, "The mutation rows").
// A row names edits (a file, an anchor that must match exactly once, its
// replacement), a package, the tests that must fail, and whether they run
// with -race. Each row runs, from the module root and one per CPU, as
//
//	go test -vet=off -overlay <json> -count 1 -timeout 2m -v -run '^(<tests>)$' <pkg> [-race]
//
// so the tree is never copied or edited. A test may be named Test/Sub, one
// subtest of it; a row names either top-level tests only or subtests of one
// test only, and runs with -run '^(Test)$/^(<subs>)$'. A row is caught when
// go test exits non-zero without a build failure (a hang is caught by the
// timeout), and stale when an anchor matches zero or several times, a named
// test is not declared as `func TestX(` in the package's _test.go files, a
// named subtest did not run, or the mutated package does not build. The exit
// status is 1 when a selected row is stale or survives.
//
// With no flags every row runs. -id selects rows by ID, -file every row that
// edits one of the files (paths from the module root, separated by commas or
// newlines, so `git diff --name-only` output can be passed as is); together
// they select the union.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"
)

//go:embed rows.json
var rowsJSON []byte

type edit struct {
	File    string `json:"file"`
	Anchor  string `json:"anchor"`
	Replace string `json:"replace"`
}

type row struct {
	ID    string   `json:"id"`
	Pkg   string   `json:"pkg"`
	Tests []string `json:"tests"`
	Race  bool     `json:"race,omitempty"`
	Note  string   `json:"note,omitempty"` // what the row breaks, or why it moved from the table it came from
	Edits []edit   `json:"edits"`
}

type table struct {
	Table string `json:"table"`
	Rows  []row  `json:"rows"`
}

// mutate applies the row's edits in order and returns the mutated files. It
// is the cheap half of the staleness check: every anchor matches exactly
// once, and every named test is declared in the package's test files.
func mutate(root string, r row) (map[string]string, error) {
	if len(r.Edits) == 0 || len(r.Tests) == 0 || r.Pkg == "" {
		return nil, errors.New("a row needs an edit, a package and a test")
	}
	out := map[string]string{}
	for _, e := range r.Edits {
		src, ok := out[e.File]
		if !ok {
			b, err := os.ReadFile(filepath.Join(root, e.File))
			if err != nil {
				return nil, err
			}
			src = string(b)
		}
		if n := strings.Count(src, e.Anchor); n != 1 || e.Anchor == "" {
			return nil, fmt.Errorf("anchor matches %d times in %s: %q", n, e.File, e.Anchor)
		}
		out[e.File] = strings.Replace(src, e.Anchor, e.Replace, 1)
	}
	if _, err := runPattern(r.Tests); err != nil {
		return nil, err
	}
	tests, _ := filepath.Glob(filepath.Join(root, r.Pkg, "*_test.go"))
	var decl strings.Builder
	for _, f := range tests {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		decl.Write(b)
	}
	for _, name := range r.Tests {
		name, _, _ = strings.Cut(name, "/")
		if !strings.Contains(decl.String(), "func "+name+"(") {
			return nil, fmt.Errorf("test %s is not declared in %s", name, r.Pkg)
		}
	}
	return out, nil
}

// runPattern returns the -run pattern of a row's tests: top-level names, or
// Test/Sub names of one test.
func runPattern(tests []string) (string, error) {
	var top, subs []string
	for i, name := range tests {
		t, sub, nested := strings.Cut(name, "/")
		if i > 0 && (nested != (len(subs) > 0) || nested && t != top[0]) {
			return "", fmt.Errorf("tests %v mix top-level tests and subtests, or subtests of two tests", tests)
		}
		if !nested || i == 0 {
			top = append(top, t)
		}
		if nested {
			subs = append(subs, regexp.QuoteMeta(sub))
		}
	}
	p := "^(" + strings.Join(top, "|") + ")$"
	if len(subs) > 0 {
		p += "/^(" + strings.Join(subs, "|") + ")$"
	}
	return p, nil
}

// runRow runs one row's tests against its mutated files, written under tmp,
// and returns its verdict — caught, SURVIVES or STALE — and for the last two
// the reason.
func runRow(root, tmp string, r row) (string, string) {
	files, err := mutate(root, r)
	if err != nil {
		return "STALE", err.Error()
	}
	dir, err := os.MkdirTemp(tmp, r.ID+"-")
	replace := map[string]string{}
	for file, src := range files {
		dst := filepath.Join(dir, strings.ReplaceAll(file, "/", "_"))
		replace[filepath.Join(root, file)] = dst
		err = errors.Join(err, os.WriteFile(dst, []byte(src), 0o644))
	}
	overlay, _ := json.Marshal(map[string]any{"Replace": replace})
	ovPath := filepath.Join(dir, "overlay.json")
	if err = errors.Join(err, os.WriteFile(ovPath, overlay, 0o644)); err != nil {
		return "STALE", err.Error()
	}
	pattern, _ := runPattern(r.Tests)
	args := []string{"test", "-vet=off", "-overlay", ovPath, "-count", "1", "-timeout", "2m", "-v",
		"-run", pattern, "./" + r.Pkg}
	if r.Race {
		args = append(args, "-race")
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	switch {
	case err == nil:
		for _, name := range r.Tests {
			if strings.Contains(name, "/") && !strings.Contains(string(out), "--- PASS: "+name+" ") {
				return "STALE", "subtest " + name + " did not run"
			}
		}
		return "SURVIVES", "the tests pass"
	case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
		return "STALE", "does not build:\n" + string(out)
	}
	return "caught", ""
}

// selectRows returns the rows the flags name, in table order; every row
// when both are empty.
func selectRows(ts []table, ids, files string) ([]row, error) {
	split := func(s string) []string {
		return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == '\n' || r == ' ' })
	}
	want, touched := map[string]bool{}, map[string]bool{}
	for _, id := range split(ids) {
		want[id] = true
	}
	for _, f := range split(files) {
		touched[filepath.ToSlash(filepath.Clean(f))] = true
	}
	all := len(want) == 0 && len(touched) == 0
	var out []row
	for _, t := range ts {
		for _, r := range t.Rows {
			pick := all || want[r.ID]
			for _, e := range r.Edits {
				pick = pick || touched[e.File]
			}
			if pick {
				out = append(out, r)
			}
			delete(want, r.ID)
		}
	}
	for id := range want {
		return nil, fmt.Errorf("no row with ID %s", id)
	}
	return out, nil
}

func main() {
	ids := flag.String("id", "", "run the rows with these comma-separated IDs")
	files := flag.String("file", "", "run every row that edits one of these comma- or newline-separated files")
	flag.Parse()
	var ts []table
	err := json.Unmarshal(rowsJSON, &ts)
	rows, serr := selectRows(ts, *ids, *files)
	mod, merr := exec.Command("go", "env", "GOMOD").Output()
	tmp, terr := os.MkdirTemp("", "astream-mutate-")
	if flag.NArg() > 0 {
		err = errors.Join(err, errors.New("unexpected arguments: rows are selected with -id and -file"))
	}
	if err = errors.Join(err, serr, merr, terr); err != nil {
		fmt.Fprintln(os.Stderr, "astream-mutate:", err)
		os.Exit(2)
	}
	defer os.RemoveAll(tmp)
	root := filepath.Dir(strings.TrimSpace(string(mod)))

	// One row per CPU; each verdict prints as it lands, then a summary per table.
	type result struct{ id, verdict, detail string }
	start, sem, results := time.Now(), make(chan struct{}, runtime.NumCPU()), make(chan result)
	go func() {
		for _, r := range rows {
			sem <- struct{}{}
			go func() {
				v, detail := runRow(root, tmp, r)
				<-sem
				results <- result{r.ID, v, detail}
			}()
		}
	}()
	verdicts := map[string]string{}
	for range rows {
		res := <-results
		verdicts[res.id] = res.verdict
		fmt.Printf("%-8s %s\n", res.verdict, res.id)
		if res.detail != "" {
			fmt.Println("        ", strings.ReplaceAll(strings.TrimSpace(res.detail), "\n", "\n         "))
		}
	}
	fmt.Printf("\n%5s %7s %6s %8s  %s\n", "rows", "caught", "stale", "survive", "table")
	bad := 0
	for _, t := range ts {
		n := map[string]int{}
		for _, r := range t.Rows {
			if v, ok := verdicts[r.ID]; ok {
				n[v]++
				n[""]++
			}
		}
		if n[""] > 0 {
			fmt.Printf("%5d %7d %6d %8d  %s\n", n[""], n["caught"], n["STALE"], n["SURVIVES"], t.Table)
		}
		bad += n["STALE"] + n["SURVIVES"]
	}
	fmt.Printf("%d rows in %s\n", len(rows), time.Since(start).Round(time.Second))
	if bad > 0 {
		os.RemoveAll(tmp)
		os.Exit(1)
	}
}
