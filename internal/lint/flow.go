package lint

import (
	"go/ast"
	"go/token"
)

// This file is the one control-flow engine under the flow-sensitive
// analyzers (DESIGN.md §8, "The flow engine"): lockheld-send, errsink and
// the lifetime IR are clients that bring a lattice and leaf transfer
// functions, and every rule about control lives here, once:
//
//   - if / switch / type switch / select fork the state, one copy per arm,
//     and join the arms that fall out; the pre-state falls through only when
//     no else / default exists (a default-less select blocks instead);
//   - case expressions run in source order before any body, so the default
//     body and the no-match path see all of them; fallthrough carries a
//     clause's exit into the next clause's entry;
//   - loops iterate the body until the client's join stops changing the
//     head state (flowMaxIter is a backstop); the exit state is the
//     condition's false outcome at that fixpoint, joined with every break;
//   - break and continue (labels included) carry their state to the
//     construct's exit and the loop head; return, goto and panic end the
//     path; return and falling off the end run the deferred calls seen so
//     far, LIFO, and then the client's exit hook;
//   - every sub-part of every construct — init, cond, post, tag, type-switch
//     guard, case expressions, comm statements, range operand — reaches the
//     client exactly once per walk of its construct.
//
// Loop bodies are walked more than once, so a client's reporting must be
// idempotent per position.

// flowClient is one analysis over the engine, generic over its abstract
// state S. States are owned: a hook may mutate the S it is given and return
// it.
type flowClient[S any] interface {
	clone(s S) S
	// join folds src into dst at a merge point and reports whether dst
	// changed. loop is the loop statement when the merge is a loop's head or
	// exit, nil at every other merge.
	join(dst, src S, loop ast.Stmt) (S, bool)
	// stmt is the transfer function of one statement that is not control
	// flow (return and defer included: their operands are evaluated here).
	// comm marks the communication of a select clause, which runs in that
	// clause's copy of the state and blocks only as the select does.
	stmt(st ast.Stmt, s S, comm bool) S
	// expr evaluates a switch tag, a case expression or a range operand.
	expr(e ast.Expr, s S) S
	// cond evaluates an if or for condition and returns the states of its
	// true and false outcomes.
	cond(e ast.Expr, s S) (yes, no S)
	// enter runs where a select waits (once) and where a range fetches its
	// next element and assigns key and value (every iteration).
	enter(st ast.Stmt, s S) S
	// deferred applies one deferred call at a function exit.
	deferred(d *ast.DeferStmt, s S) S
	// exit observes the state at a function exit, after the deferred calls.
	exit(s S, pos token.Pos)
}

// flowMaxIter bounds the loop fixpoint; the clients' lattices are finite
// and converge in two or three rounds.
const flowMaxIter = 10

// flowPath is the state of one control-flow path; the zero value is a path
// that ended.
type flowPath[S any] struct {
	s    S
	live bool
}

// flowFrame is one enclosing break/continue target.
type flowFrame[S any] struct {
	label             string
	loop              bool
	breaks, continues []S
}

type flow[S any] struct {
	p      *Package
	c      flowClient[S]
	frames []*flowFrame[S]
	defers []*ast.DeferStmt
	label  string // label of the statement about to be walked
}

// runFlow walks one function body from the entry state.
func runFlow[S any](p *Package, c flowClient[S], body *ast.BlockStmt, entry S) {
	f := &flow[S]{p: p, c: c}
	if end := f.block(body.List, entry); end.live {
		f.leave(end.s, body.Rbrace)
	}
}

func live[S any](s S) flowPath[S] { return flowPath[S]{s: s, live: true} }

func (f *flow[S]) merge(dst, src flowPath[S], loop ast.Stmt) flowPath[S] {
	switch {
	case !src.live:
		return dst
	case !dst.live:
		return src
	}
	dst.s, _ = f.c.join(dst.s, src.s, loop)
	return dst
}

func (f *flow[S]) leave(s S, pos token.Pos) {
	for i := len(f.defers) - 1; i >= 0; i-- {
		s = f.c.deferred(f.defers[i], s)
	}
	f.c.exit(s, pos)
}

func (f *flow[S]) block(list []ast.Stmt, s S) flowPath[S] {
	cur := live(s)
	for _, st := range list {
		if cur = f.stmt(st, cur.s); !cur.live {
			break
		}
	}
	return cur
}

func (f *flow[S]) simple(st ast.Stmt, s S) S {
	if st == nil {
		return s
	}
	return f.c.stmt(st, s, false)
}

func (f *flow[S]) stmt(st ast.Stmt, s S) flowPath[S] {
	label := f.label
	f.label = ""
	switch st := st.(type) {
	case *ast.BlockStmt:
		return f.block(st.List, s)
	case *ast.LabeledStmt:
		f.label = st.Label.Name
		return f.stmt(st.Stmt, s)
	case *ast.IfStmt:
		yes, no := f.c.cond(st.Cond, f.simple(st.Init, s))
		then := f.block(st.Body.List, yes)
		els := live(no)
		if st.Else != nil {
			els = f.stmt(st.Else, no)
		}
		return f.merge(els, then, nil)
	case *ast.ForStmt:
		return f.loop(st, label, f.simple(st.Init, s), st.Body, st.Post, func(head S) (S, flowPath[S]) {
			if st.Cond == nil {
				return head, flowPath[S]{}
			}
			yes, no := f.c.cond(st.Cond, head)
			return yes, live(no)
		})
	case *ast.RangeStmt:
		return f.loop(st, label, f.c.expr(st.X, s), st.Body, nil, func(head S) (S, flowPath[S]) {
			return f.c.enter(st, f.c.clone(head)), live(head)
		})
	case *ast.SwitchStmt:
		s = f.simple(st.Init, s)
		if st.Tag != nil {
			s = f.c.expr(st.Tag, s)
		}
		return f.clauses(st, st.Body, label, s)
	case *ast.TypeSwitchStmt:
		return f.clauses(st, st.Body, label, f.simple(st.Assign, f.simple(st.Init, s)))
	case *ast.SelectStmt:
		return f.clauses(st, st.Body, label, f.c.enter(st, s))
	case *ast.BranchStmt:
		if st.Tok == token.FALLTHROUGH {
			return live(s) // clauses routes the clause's exit
		}
		if fr := f.target(st); fr != nil && st.Tok == token.BREAK {
			fr.breaks = append(fr.breaks, s)
		} else if fr != nil {
			fr.continues = append(fr.continues, s)
		}
		return flowPath[S]{} // goto ends the path
	case *ast.ReturnStmt:
		f.leave(f.c.stmt(st, s, false), st.Pos())
		return flowPath[S]{}
	case *ast.DeferStmt:
		seen := false
		for _, d := range f.defers {
			seen = seen || d == st
		}
		if !seen {
			f.defers = append(f.defers, st)
		}
	case *ast.ExprStmt:
		if isPanicCall(f.p, st.X) {
			f.c.stmt(st, s, false)
			return flowPath[S]{}
		}
	}
	return live(f.c.stmt(st, s, false))
}

// target resolves the frame a break or continue leaves: the labeled one, or
// the innermost (loop, for continue).
func (f *flow[S]) target(br *ast.BranchStmt) *flowFrame[S] {
	if br.Tok != token.BREAK && br.Tok != token.CONTINUE {
		return nil
	}
	for i := len(f.frames) - 1; i >= 0; i-- {
		fr := f.frames[i]
		switch {
		case br.Label != nil:
			if fr.label == br.Label.Name {
				return fr
			}
		case fr.loop || br.Tok == token.BREAK:
			return fr
		}
	}
	return nil
}

func (f *flow[S]) push(label string, loop bool) *flowFrame[S] {
	fr := &flowFrame[S]{label: label, loop: loop}
	f.frames = append(f.frames, fr)
	return fr
}

// loop iterates one for/range to the head-state fixpoint. head maps the
// state at the loop head to the body's entry and the no-more-iterations
// exit (a dead path for a condition-less for).
func (f *flow[S]) loop(st ast.Stmt, label string, h S, body *ast.BlockStmt, post ast.Stmt,
	head func(S) (S, flowPath[S])) flowPath[S] {
	fr := f.push(label, true)
	var exit flowPath[S]
	for i := 0; i < flowMaxIter; i++ {
		fr.breaks, fr.continues = nil, nil
		var in S
		in, exit = head(f.c.clone(h))
		back := f.block(body.List, in)
		for _, c := range fr.continues {
			back = f.merge(back, live(c), st)
		}
		if !back.live {
			break
		}
		var changed bool
		if h, changed = f.c.join(h, f.simple(post, back.s), st); !changed {
			break
		}
	}
	f.frames = f.frames[:len(f.frames)-1]
	for _, b := range fr.breaks {
		exit = f.merge(exit, live(b), st)
	}
	return exit
}

// clauses walks the body of a switch, type switch or select whose operand
// has been evaluated into s. Only a switch's case lists hold expressions to
// evaluate (a type switch lists types).
func (f *flow[S]) clauses(st ast.Stmt, body *ast.BlockStmt, label string, s S) flowPath[S] {
	fr := f.push(label, false)
	entries := make([]S, len(body.List))
	bodies := make([][]ast.Stmt, len(body.List))
	_, values := st.(*ast.SwitchStmt)
	_, blocks := st.(*ast.SelectStmt)
	def := -1
	for i, cl := range body.List {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			bodies[i] = cl.Body
			if cl.List == nil {
				def = i
				continue
			}
			for _, e := range cl.List {
				if values {
					s = f.c.expr(e, s)
				}
			}
			entries[i] = f.c.clone(s)
		case *ast.CommClause:
			bodies[i] = cl.Body
			if cl.Comm == nil {
				def = i
				continue
			}
			entries[i] = f.c.stmt(cl.Comm, f.c.clone(s), true)
		}
	}
	var out, through flowPath[S]
	if def >= 0 {
		entries[def] = s
	} else if !blocks {
		out = live(s)
	}
	for i, list := range bodies {
		end := f.block(list, f.merge(live(entries[i]), through, nil).s)
		through = flowPath[S]{}
		if n := len(list); n > 0 && end.live {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				through = end
				continue
			}
		}
		out = f.merge(out, end, nil)
	}
	f.frames = f.frames[:len(f.frames)-1]
	for _, b := range fr.breaks {
		out = f.merge(out, live(b), nil)
	}
	return out
}

// isPanicCall reports whether e is a call to the panic builtin.
func isPanicCall(p *Package, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	return ok && builtinName(p, call) == "panic"
}
