package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// NewLockHeldSend builds the lock-discipline analyzer: it flags channel
// sends, blocking receives, blocking selects — and, interprocedurally,
// calls to functions whose BlockSummary says they may block — performed
// while a sync.Mutex or sync.RWMutex is held. In a bounded-channel engine
// this is the classic deadlock shape: the send backpressures, the lock
// never releases, and every goroutine needing the lock wedges behind it
// (cf. STRETCH's shared-window lock discipline).
//
// The scan is one client of the flow engine (flow.go), which owns forking,
// joining, loop fixpoints, break/continue and path termination. The state
// is the set of locks that may be held (a lock held on any path into a
// merge stays tracked — the analyzer reports possible deadlocks) plus the
// locks with a pending deferred unlock:
//
//   - a branch that terminates (return / panic / goto) contributes nothing
//     to the post-branch state, so `if cond { mu.Unlock(); return }` does
//     not leak a phantom release — and `mu.Lock(); if c { mu.Unlock() };
//     send` is still flagged because the else path falls through held;
//   - locks acquired or released inside a branch propagate to the join,
//     so a release on every fall-through path really ends the held region
//     (no over-extension) and an acquire inside a branch extends it (no
//     under-extension).
//
// defer mu.Unlock() keeps the lock held to the end of the enclosing body,
// including past early returns in later branches. A deferred call that may
// block is flagged when a deferred unlock is already pending: deferred
// calls run LIFO, so the blocker would run before the unlock.
//
// Function literals are analyzed independently with an empty lock state
// (they run on their own schedule); calls with no static callee are
// treated as non-blocking (bounded analysis).
func NewLockHeldSend() *Analyzer {
	a := &Analyzer{
		Name: "lockheld-send",
		Doc:  "flags channel ops and calls to may-block functions while a sync.Mutex/RWMutex is held",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		g := m.Graph()
		sums := m.BlockSummaries()
		var diags []Diagnostic
		for _, n := range g.Nodes {
			seen := map[token.Pos]bool{} // loop bodies are walked to a fixpoint
			c := &lockScan{
				pkg:   n.Pkg,
				graph: g,
				sums:  sums,
				report: func(pos token.Pos, chain []string, format string, args ...any) {
					if seen[pos] {
						return
					}
					seen[pos] = true
					d := a.Diag(n.Pkg, pos, format, args...)
					d.Chain = chain
					diags = append(diags, d)
				},
			}
			runFlow[*lockState](n.Pkg, c, n.Body, &lockState{held: map[string]bool{}, defUn: map[string]bool{}})
		}
		return diags
	}
	return a
}

// lockScan is the flow client walking one function body.
type lockScan struct {
	pkg    *Package
	graph  *CallGraph
	sums   map[*CGNode]*BlockSummary
	report func(pos token.Pos, chain []string, format string, args ...any)
}

// lockState is the may-held lattice: set union at every join.
type lockState struct {
	held  map[string]bool // rendered lock expressions that may be held
	defUn map[string]bool // locks with a pending deferred unlock
}

func (c *lockScan) clone(s *lockState) *lockState {
	return &lockState{held: maps.Clone(s.held), defUn: maps.Clone(s.defUn)}
}

func (c *lockScan) join(dst, src *lockState, _ ast.Stmt) (*lockState, bool) {
	before := len(dst.held) + len(dst.defUn)
	for k := range src.held {
		dst.held[k] = true
	}
	for k := range src.defUn {
		dst.defUn[k] = true
	}
	return dst, len(dst.held)+len(dst.defUn) != before
}

// firstKey returns the lexicographically first key ("" when empty) so
// messages naming one lock are deterministic.
func firstKey(m map[string]bool) string {
	first := ""
	for k := range m {
		if first == "" || k < first {
			first = k
		}
	}
	return first
}

// syncLockCall classifies a call as a sync Lock/Unlock method; it returns
// the rendered receiver and the method name, or ok=false. RLock/RUnlock
// (sync.RWMutex read locks) count: a read-locked send still deadlocks
// against any writer waiting behind it.
func syncLockCall(p *Package, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	obj := p.Info.Uses[sel.Sel]
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}

// stmt is the leaf transfer function: lock and unlock calls move the
// state, a send is the finding itself, and every other statement is scanned
// for blocking receives and calls. The communication of a select clause
// blocks only as the select does (enter reports that), so its own send or
// receive is not flagged — its operands still are.
func (c *lockScan) stmt(st ast.Stmt, s *lockState, comm bool) *lockState {
	var skip ast.Node // the clause's own receive
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if recv, method, ok := syncLockCall(c.pkg, call); ok {
				switch method {
				case "Lock", "RLock":
					s.held[recv] = true
				case "Unlock", "RUnlock":
					delete(s.held, recv)
					delete(s.defUn, recv)
				}
				return s
			}
		}
		skip = unparen(st.X)
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			skip = unparen(st.Rhs[0])
		}
	case *ast.DeferStmt:
		if recv, method, ok := syncLockCall(c.pkg, st.Call); ok {
			if method == "Unlock" || method == "RUnlock" {
				// defer x.Unlock() holds the lock to the end of the
				// function: the held entry stays, and later deferred
				// blocking calls are now dangerous (LIFO order).
				s.defUn[recv] = true
			}
			return s
		}
		if len(s.defUn) > 0 {
			if callee, _ := c.graph.resolveCall(c.pkg, st.Call); callee != nil {
				if sum := c.sums[callee]; sum != nil && sum.Blocks {
					chain, desc, site := BlockChain(callee, c.sums)
					c.report(st.Call.Pos(), chain,
						"deferred call to %s runs before the deferred %s.Unlock and may block (%s; %s at %s); unlock explicitly before deferring it",
						callee.DisplayName(), firstKey(s.defUn), strings.Join(chain, " → "), desc, chainSite(site))
				}
			}
		}
		return c.scanArgs(st.Call, s)
	case *ast.GoStmt:
		// The goroutine body runs later without our locks; arguments are
		// evaluated now.
		return c.scanArgs(st.Call, s)
	case *ast.SendStmt:
		if lock := firstKey(s.held); lock != "" && !comm {
			c.report(st.Arrow, nil, "channel send while %s is held can deadlock the engine; release the lock first", lock)
		}
	}
	if !comm {
		skip = nil
	}
	c.scan(st, skip, s)
	return s
}

func (c *lockScan) scanArgs(call *ast.CallExpr, s *lockState) *lockState {
	for _, arg := range call.Args {
		c.scan(arg, nil, s)
	}
	return s
}

func (c *lockScan) expr(e ast.Expr, s *lockState) *lockState {
	c.scan(e, nil, s)
	return s
}

func (c *lockScan) cond(e ast.Expr, s *lockState) (yes, no *lockState) {
	c.scan(e, nil, s)
	return s, c.clone(s)
}

// enter flags the two statements that block as a whole: a select with no
// default, and a range over a channel (between every pair of receives).
func (c *lockScan) enter(st ast.Stmt, s *lockState) *lockState {
	lock := firstKey(s.held)
	if lock == "" {
		return s
	}
	switch st := st.(type) {
	case *ast.SelectStmt:
		if !hasDefaultComm(st) {
			c.report(st.Select, nil, "select with no default blocks while %s is held; release the lock first", lock)
		}
	case *ast.RangeStmt:
		if t := c.pkg.Info.Types[st.X].Type; t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				c.report(st.For, nil, "range over channel while %s is held blocks between receives; release the lock first", lock)
			}
		}
	}
	return s
}

func (c *lockScan) deferred(_ *ast.DeferStmt, s *lockState) *lockState { return s }

func (c *lockScan) exit(*lockState, token.Pos) {}

// hasDefaultComm reports whether a select has a default clause, i.e. never
// blocks.
func hasDefaultComm(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// scan flags blocking receives — and calls to may-block functions — inside
// a statement or expression while locked; nested function literals are
// opaque (they run with their own lock state), and skip is a select
// clause's own receive.
func (c *lockScan) scan(root, skip ast.Node, s *lockState) {
	lock := firstKey(s.held)
	if lock == "" {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && n != skip {
				c.report(n.OpPos, nil, "blocking channel receive while %s is held can deadlock the engine; release the lock first", lock)
			}
		case *ast.CallExpr:
			c.checkCall(n, lock)
		}
		return true
	})
}

// checkCall consults the callee's blocking summary: a call that may block
// while a lock is held is the interprocedural form of the lock-held send,
// reported with the full witness call chain.
func (c *lockScan) checkCall(call *ast.CallExpr, lock string) {
	if _, _, isSync := syncLockCall(c.pkg, call); isSync {
		return
	}
	callee, _ := c.graph.resolveCall(c.pkg, call)
	if callee == nil {
		return // unknown or external callee: bounded, no finding
	}
	sum := c.sums[callee]
	if sum == nil || !sum.Blocks {
		return
	}
	chain, desc, site := BlockChain(callee, c.sums)
	c.report(call.Pos(), chain,
		"call to %s while %s is held may block (%s; %s at %s) and can deadlock the engine; release the lock first",
		callee.DisplayName(), lock, strings.Join(chain, " → "), desc, chainSite(site))
}

// forEachFunc visits the type and body of every function and function
// literal in the package, each exactly once (used by the per-package
// analyzers).
func forEachFunc(p *Package, fn func(ftype *ast.FuncType, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Type, n.Body)
				}
			case *ast.FuncLit:
				fn(n.Type, n.Body)
			}
			return true
		})
	}
}
