package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// toyPaths is the contract test's abstract state: the may-assigned variable
// set of every distinct path into a point, each set rendered "{x,y}". Join
// is set union, so an exit state lists exactly which arms fell through.
type toyPaths map[string]bool

// toyFlow is a flow client that assigns variables and keeps a record: the
// order it first saw each sub-part in, how often it saw each, and per exit
// line the deferred calls run there and the paths that reached it.
type toyFlow struct {
	fset   *token.FileSet
	order  []string
	visits map[ast.Node]int
	ran    []string         // deferred calls since the last exit
	defers map[int][]string // exit line → deferred calls, in run order
	exits  map[int]toyPaths // exit line → paths
}

func (t *toyFlow) src(n ast.Node) string {
	var b bytes.Buffer
	printer.Fprint(&b, t.fset, n)
	return strings.Join(strings.Fields(b.String()), " ")
}

func (t *toyFlow) see(n ast.Node, what string) {
	if t.visits[n]++; t.visits[n] == 1 {
		t.order = append(t.order, what)
	}
}

func (t *toyFlow) assign(s toyPaths, names ...string) toyPaths {
	out := toyPaths{}
	for p := range s {
		set := strings.FieldsFunc(strings.Trim(p, "{}"), func(r rune) bool { return r == ',' })
		for _, name := range names {
			if i := sort.SearchStrings(set, name); i == len(set) || set[i] != name {
				set = append(set, name)
				sort.Strings(set)
			}
		}
		out["{"+strings.Join(set, ",")+"}"] = true
	}
	return out
}

func (t *toyFlow) clone(s toyPaths) toyPaths { return t.assign(s) }

func (t *toyFlow) join(dst, src toyPaths, _ ast.Stmt) (toyPaths, bool) {
	before := len(dst)
	for p := range src {
		dst[p] = true
	}
	return dst, len(dst) != before
}

func (t *toyFlow) stmt(st ast.Stmt, s toyPaths, comm bool) toyPaths {
	what := t.src(st)
	if comm {
		what = "comm " + what
	}
	t.see(st, what)
	if as, ok := st.(*ast.AssignStmt); ok {
		for _, l := range as.Lhs {
			s = t.assign(s, l.(*ast.Ident).Name)
		}
	}
	return s
}

func (t *toyFlow) expr(e ast.Expr, s toyPaths) toyPaths {
	t.see(e, "expr "+t.src(e))
	return s
}

func (t *toyFlow) cond(e ast.Expr, s toyPaths) (yes, no toyPaths) {
	t.see(e, "cond "+t.src(e))
	return s, t.clone(s)
}

func (t *toyFlow) enter(st ast.Stmt, s toyPaths) toyPaths {
	if r, ok := st.(*ast.RangeStmt); ok {
		t.see(st, "enter range")
		return t.assign(s, r.Key.(*ast.Ident).Name, r.Value.(*ast.Ident).Name)
	}
	t.see(st, "enter select")
	return s
}

func (t *toyFlow) deferred(d *ast.DeferStmt, s toyPaths) toyPaths {
	t.ran = append(t.ran, t.src(d.Call))
	return s
}

func (t *toyFlow) exit(s toyPaths, pos token.Pos) {
	line := t.fset.Position(pos).Line
	t.defers[line], t.ran = t.ran, nil
	if t.exits[line] == nil {
		t.exits[line] = toyPaths{}
	}
	t.join(t.exits[line], s, nil)
}

// TestFlowContract pins the engine's control rules construct by construct:
// each row is one function body (its first statement on line 1), the order
// the client must first see its sub-parts in, and per exit line the
// deferred calls run there (LIFO) and the paths that reach it. Loop-free
// rows also assert the exactly-once rule.
func TestFlowContract(t *testing.T) {
	rows := []struct {
		name  string
		body  string
		order []string
		exits map[int]string // line → "deferred calls | paths"
		loops bool
	}{
		{
			name:  "if / else-if chain: one arm each, no fall-through past a final else",
			body:  `if a = 1; c { x = 1 } else if d { y = 1 } else { z = 1 }`,
			order: []string{"a = 1", "cond c", "x = 1", "cond d", "y = 1", "z = 1"},
			exits: map[int]string{1: " | {a,x} {a,y} {a,z}"},
		},
		{
			name:  "if without else: the pre-state falls through",
			body:  `if c { x = 1 }`,
			order: []string{"cond c", "x = 1"},
			exits: map[int]string{1: " | {} {x}"},
		},
		{
			name:  "for with post: init once, cond-body-post per round, exit is the cond's false outcome",
			body:  `for i = 0; i < n; i++ { x = 1 }`,
			order: []string{"i = 0", "cond i < n", "x = 1", "i++"},
			exits: map[int]string{1: " | {i} {i,x}"},
			loops: true,
		},
		{
			name:  "range: operand once, key/value at the head of every round",
			body:  `for k, e := range xs { x = 1 }`,
			order: []string{"expr xs", "enter range", "x = 1"},
			exits: map[int]string{1: " | {} {e,k,x}"},
			loops: true,
		},
		{
			name:  "switch with default: init, tag, case expressions in order, no fall-through of the pre-state",
			body:  `switch a = 1; n { case 1, 2: x = 1; default: y = 1 }`,
			order: []string{"a = 1", "expr n", "expr 1", "expr 2", "x = 1", "y = 1"},
			exits: map[int]string{1: " | {a,x} {a,y}"},
		},
		{
			name:  "switch without default: the pre-state falls through",
			body:  `switch n { case 1: x = 1 }`,
			order: []string{"expr n", "expr 1", "x = 1"},
			exits: map[int]string{1: " | {} {x}"},
		},
		{
			name:  "default first with fallthrough: case expressions precede the default body, its exit enters the next clause",
			body:  `switch n { default: x = 1; fallthrough; case 1: y = 1 }`,
			order: []string{"expr n", "expr 1", "x = 1", "y = 1"},
			exits: map[int]string{1: " | {y} {x,y}"},
		},
		{
			name:  "type switch: the guard is a statement, the case lists are types",
			body:  `switch t := v.(type) { case int: x = 1; case nil: }`,
			order: []string{"t := v.(type)", "x = 1"},
			exits: map[int]string{1: " | {t} {t,x}"},
		},
		{
			name:  "select without default: it blocks, so the pre-state does not fall through",
			body:  `select { case x = <-ch: y = 1; case ch <- 1: z = 1 }`,
			order: []string{"enter select", "comm x = <-ch", "comm ch <- 1", "y = 1", "z = 1"},
			exits: map[int]string{1: " | {z} {x,y}"},
		},
		{
			name:  "select with default",
			body:  `select { case x = <-ch: default: y = 1 }`,
			order: []string{"enter select", "comm x = <-ch", "y = 1"},
			exits: map[int]string{1: " | {x} {y}"},
		},
		{
			name: "labeled break out of a nested loop: {x} reaches the exit without y",
			body: `outer:
for c { for d { x = 1; break outer }; y = 1 }`,
			order: []string{"cond c", "cond d", "x = 1", "y = 1"},
			exits: map[int]string{2: " | {} {x} {y} {x,y}"},
			loops: true,
		},
		{
			name: "labeled continue out of a nested loop: {x} reaches the outer head without y",
			body: `outer:
for c { for d { x = 1; continue outer }; y = 1 }`,
			order: []string{"cond c", "cond d", "x = 1", "y = 1"},
			exits: map[int]string{2: " | {} {x} {y} {x,y}"},
			loops: true,
		},
		{
			name:  "unlabeled break in a switch leaves the switch, not the loop",
			body:  `for c { switch n { case 1: x = 1; break }; y = 1 }`,
			order: []string{"cond c", "expr n", "expr 1", "x = 1", "y = 1"},
			exits: map[int]string{1: " | {} {y} {x,y}"},
			loops: true,
		},
		{
			name:  "condition-less for: only a break leaves it",
			body:  `for { x = 1; if c { break } }`,
			order: []string{"x = 1", "cond c"},
			exits: map[int]string{1: " | {x}"},
			loops: true,
		},
		{
			name:  "goto ends its path",
			body:  `x = 1; if c { goto done }; y = 1; done: z = 1`,
			order: []string{"x = 1", "cond c", "y = 1", "z = 1"},
			exits: map[int]string{1: " | {x,y,z}"},
		},
		{
			name:  "panic ends its path without an exit",
			body:  `if c { panic("boom") }; y = 1`,
			order: []string{"cond c", `panic("boom")`, "y = 1"},
			exits: map[int]string{1: " | {y}"},
		},
		{
			name: "return inside a loop: an exit per return, the loop's own exit after",
			body: `for c { x = 1
if d { return }
y = 1 }
z = 1`,
			order: []string{"cond c", "x = 1", "cond d", "return", "y = 1", "z = 1"},
			exits: map[int]string{2: " | {x} {x,y}", 4: " | {z} {x,y,z}"},
			loops: true,
		},
		{
			name: "two defers: LIFO at every exit, and only those already seen",
			body: `defer g()
if c { return }
defer h()
x = 1`,
			order: []string{"defer g()", "cond c", "return", "defer h()", "x = 1"},
			exits: map[int]string{2: "g() | {}", 4: "h() g() | {x}"},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fset := token.NewFileSet()
			// The body starts on line 1 of the file.
			src := "package p; func f(c, d bool, n int, xs []int, v any, ch chan int, g, h func()) { var a, i, x, y, z int; _, _, _, _, _ = a, i, x, y, z\n//line body:1\n" + row.body + "}"
			file, err := parser.ParseFile(fset, "toy.go", src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			conf := types.Config{Error: func(error) {}} // unused labels and variables are fine here
			conf.Check("p", fset, []*ast.File{file}, info)
			body := file.Decls[0].(*ast.FuncDecl).Body
			body.List = body.List[2:] // the declarations are not part of the row
			toy := &toyFlow{fset: fset, visits: map[ast.Node]int{}, defers: map[int][]string{}, exits: map[int]toyPaths{}}
			runFlow[toyPaths](&Package{Fset: fset, Info: info}, toy, body, toyPaths{"{}": true})

			if !reflect.DeepEqual(toy.order, row.order) {
				t.Errorf("sub-part order:\n got %q\nwant %q", toy.order, row.order)
			}
			got := map[int]string{}
			for line, paths := range toy.exits {
				var ps []string
				for p := range paths {
					ps = append(ps, p)
				}
				sort.Slice(ps, func(i, j int) bool { // fewest assignments first
					return len(ps[i]) < len(ps[j]) || len(ps[i]) == len(ps[j]) && ps[i] < ps[j]
				})
				got[line] = fmt.Sprintf("%s | %s", strings.Join(toy.defers[line], " "), strings.Join(ps, " "))
			}
			if !reflect.DeepEqual(got, row.exits) {
				t.Errorf("exits:\n got %v\nwant %v", got, row.exits)
			}
			if !row.loops {
				for n, count := range toy.visits {
					if count != 1 {
						t.Errorf("%s reached the client %d times, want exactly once", toy.src(n), count)
					}
				}
			}
		})
	}
}
