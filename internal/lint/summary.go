package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// BlockSummary is the per-function "may block on a channel" summary the
// interprocedural lockheld-send analyzer propagates bottom-up over the call
// graph. A function blocks when its body performs a channel send, a
// blocking receive, a default-less select, or a range over a channel — or
// when it (transitively) calls a function that does.
//
// The analysis is bounded: calls through function values and interface
// methods never contribute (no finding is produced through an edge that
// cannot be statically proven), goroutine launches never block their
// caller, and sends/receives guarded by a select default are non-blocking.
type BlockSummary struct {
	// Blocks reports whether the function may block on a channel.
	Blocks bool
	// Desc names the primitive operation ("channel send", …). Set only on
	// the function that performs it directly.
	Desc string
	// Pos is the primitive operation's position (direct blockers only).
	Pos token.Pos
	// Via is the witness call edge for transitive blockers: following Via
	// chains ends at a direct blocker. Nil when the block is direct.
	Via *CGEdge
}

// ComputeBlockSummaries scans every node for direct channel blocking and
// propagates may-block bottom-up to callers until fixpoint. Iteration is
// over the graph's deterministic node order and each node's source-ordered
// edges, so witness chains (and therefore messages) are deterministic;
// recursion converges because a summary only ever flips false→true.
func ComputeBlockSummaries(g *CallGraph) map[*CGNode]*BlockSummary {
	sums := make(map[*CGNode]*BlockSummary, len(g.Nodes))
	for _, n := range g.Nodes {
		s := &BlockSummary{}
		if desc, pos, ok := directBlock(n); ok {
			s.Blocks, s.Desc, s.Pos = true, desc, pos
		}
		sums[n] = s
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			s := sums[n]
			if s.Blocks {
				continue
			}
			for _, e := range n.Out {
				if e.Kind == CallGo {
					continue // runs on its own goroutine
				}
				if cs := sums[e.Callee]; cs != nil && cs.Blocks {
					s.Blocks = true
					s.Via = e
					changed = true
					break
				}
			}
		}
	}
	return sums
}

// BlockChain renders the witness behind a blocking node: the display-name
// chain starting at n, the primitive operation's description, and its
// position. Safe to call only when the summary blocks.
func BlockChain(n *CGNode, sums map[*CGNode]*BlockSummary) (chain []string, desc string, pos token.Position) {
	for {
		chain = append(chain, n.DisplayName())
		s := sums[n]
		if s == nil || !s.Blocks {
			return chain, "unknown", token.Position{}
		}
		if s.Via == nil {
			return chain, s.Desc, n.Pkg.Fset.Position(s.Pos)
		}
		n = s.Via.Callee
	}
}

// chainSite renders a blocking site compactly for messages (base file
// name only — the diagnostic itself anchors the caller side).
func chainSite(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

// directBlock scans one function body for its first (in source order)
// unconditionally blocking channel operation. Nested function literals are
// separate nodes and are skipped; operations that are the communication
// clause of a select with a default are non-blocking and are skipped.
func directBlock(n *CGNode) (desc string, pos token.Pos, found bool) {
	p := n.Pkg
	// Communication statements of selects that have a default clause are
	// guarded: collect them so the walk below skips their channel ops.
	guarded := map[ast.Stmt]bool{}
	walkOwn(n, func(node ast.Node) {
		sel, ok := node.(*ast.SelectStmt)
		if !ok || !hasDefaultComm(sel) {
			return
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				guarded[cc.Comm] = true
			}
		}
	})

	var visit func(node ast.Node) bool
	visit = func(node ast.Node) bool {
		if found {
			return false
		}
		switch x := node.(type) {
		case *ast.FuncLit:
			return x == n.Lit // interiors of nested literals are their own nodes
		case *ast.GoStmt:
			// The spawned call cannot block this goroutine; its arguments
			// are evaluated here and can.
			for _, arg := range x.Call.Args {
				ast.Inspect(arg, visit)
			}
			return false
		case ast.Stmt:
			if guarded[x] {
				return false
			}
			switch st := x.(type) {
			case *ast.SendStmt:
				desc, pos, found = "channel send", st.Arrow, true
				return false
			case *ast.SelectStmt:
				if !hasDefaultComm(st) {
					desc, pos, found = "select with no default", st.Select, true
					return false
				}
				return true
			case *ast.RangeStmt:
				if t := p.Info.Types[st.X].Type; t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						desc, pos, found = "range over channel", st.For, true
						return false
					}
				}
				return true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				desc, pos, found = "channel receive", x.OpPos, true
				return false
			}
		}
		return true
	}
	ast.Inspect(n.Body, visit)
	return desc, pos, found
}
