package lint

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// graphFor builds the call graph over one fixture package.
func graphFor(t *testing.T, fixture string) (*Package, *CallGraph) {
	t.Helper()
	p := loadFixture(t, fixture)
	return p, BuildCallGraph([]*Package{p})
}

func nodeByName(t *testing.T, g *CallGraph, display string) *CGNode {
	t.Helper()
	for _, n := range g.Nodes {
		if n.DisplayName() == display {
			return n
		}
	}
	t.Fatalf("no node named %s; have %v", display, nodeNames(g))
	return nil
}

func nodeNames(g *CallGraph) []string {
	out := make([]string, len(g.Nodes))
	for i, n := range g.Nodes {
		out[i] = n.Name
	}
	return out
}

// outEdges renders a node's outgoing edges as "callee/kind" strings in
// source order.
func outEdges(n *CGNode) []string {
	out := make([]string, len(n.Out))
	for i, e := range n.Out {
		kind := "sync"
		switch e.Kind {
		case CallGo:
			kind = "go"
		case CallDefer:
			kind = "defer"
		}
		out[i] = e.Callee.DisplayName() + "/" + kind
	}
	return out
}

func TestCallGraphConstruction(t *testing.T) {
	_, g := graphFor(t, "cgfix")

	root := nodeByName(t, g, "root")
	got := outEdges(root)
	want := []string{
		"(*box).bump/sync",
		"box.get/sync",
		"idf/sync",
		"root$1/sync",
		"leaf/go",
		"leaf/defer",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("root edges = %v, want %v", got, want)
	}
	if !root.CallsUnknown {
		t.Error("root calls a function value; CallsUnknown should be set")
	}

	// The immediately invoked literal is its own node with its own edge.
	lit := nodeByName(t, g, "root$1")
	if got := outEdges(lit); !reflect.DeepEqual(got, []string{"leaf/sync"}) {
		t.Errorf("root$1 edges = %v", got)
	}
	if lit.Lit == nil || lit.Fn != nil {
		t.Error("literal node should carry Lit and no Fn")
	}

	// Generic instantiation resolves to the origin's node.
	idf := nodeByName(t, g, "idf")
	if len(idf.In) != 1 || idf.In[0].Caller != root {
		t.Errorf("idf.In = %v, want one edge from root", len(idf.In))
	}

	// Interface dispatch is unknown, not an edge.
	dyn := nodeByName(t, g, "dyn")
	if len(dyn.Out) != 0 || !dyn.CallsUnknown {
		t.Errorf("dyn: Out=%d CallsUnknown=%v, want bounded unknown", len(dyn.Out), dyn.CallsUnknown)
	}

	// leaf's In edges are sorted by caller name then position:
	// root (go, defer) then root$1 (sync).
	leaf := nodeByName(t, g, "leaf")
	var callers []string
	for _, e := range leaf.In {
		callers = append(callers, e.Caller.DisplayName())
	}
	if !reflect.DeepEqual(callers, []string{"root", "root", "root$1"}) {
		t.Errorf("leaf callers = %v", callers)
	}
}

func TestCallGraphDeterminism(t *testing.T) {
	p := loadFixture(t, "cgfix")
	render := func(g *CallGraph) string {
		var b strings.Builder
		for _, n := range g.Nodes {
			fmt.Fprintf(&b, "%s unknown=%v -> %v\n", n.Name, n.CallsUnknown, outEdges(n))
		}
		return b.String()
	}
	a := render(BuildCallGraph([]*Package{p}))
	for i := 0; i < 3; i++ {
		if b := render(BuildCallGraph([]*Package{p})); a != b {
			t.Fatalf("call graph not deterministic:\n%s\nvs\n%s", a, b)
		}
	}
}

func TestBlockSummaryPropagation(t *testing.T) {
	_, g := graphFor(t, "lockheldproc")
	sums := ComputeBlockSummaries(g)

	blocks := func(name string) *BlockSummary {
		t.Helper()
		return sums[nodeByName(t, g, name)]
	}

	if s := blocks("(*node).send"); !s.Blocks || s.Via != nil || s.Desc != "channel send" {
		t.Errorf("send summary = %+v, want direct channel send", s)
	}
	if s := blocks("(*node).forward"); !s.Blocks || s.Via == nil {
		t.Errorf("forward summary = %+v, want transitive block", s)
	}
	if s := blocks("(*node).forward2"); !s.Blocks || s.Via == nil {
		t.Errorf("forward2 summary = %+v, want transitive block", s)
	}
	if s := blocks("(*node).pump"); !s.Blocks {
		t.Error("recursive pump should block")
	}
	for _, clean := range []string{"(*node).trySend", "(*node).ping", "(*node).pong", "(*node).goodGoHelper", "(*node).goodFuncValue"} {
		if s := blocks(clean); s.Blocks {
			t.Errorf("%s should not block", clean)
		}
	}

	chain, desc, pos := BlockChain(nodeByName(t, g, "(*node).forward2"), sums)
	if want := []string{"(*node).forward2", "(*node).forward", "(*node).send"}; !reflect.DeepEqual(chain, want) {
		t.Errorf("forward2 chain = %v, want %v", chain, want)
	}
	if desc != "channel send" || pos.Line == 0 {
		t.Errorf("forward2 witness = %q at %v", desc, pos)
	}
}

func TestBlockSummaryDeterminism(t *testing.T) {
	p := loadFixture(t, "lockheldproc")
	render := func() string {
		g := BuildCallGraph([]*Package{p})
		sums := ComputeBlockSummaries(g)
		var b strings.Builder
		for _, n := range g.Nodes {
			s := sums[n]
			if !s.Blocks {
				continue
			}
			chain, desc, pos := BlockChain(n, sums)
			fmt.Fprintf(&b, "%s: %v %s %s\n", n.Name, chain, desc, chainSite(pos))
		}
		return b.String()
	}
	a := render()
	for i := 0; i < 3; i++ {
		if b := render(); a != b {
			t.Fatalf("summaries not deterministic:\n%s\nvs\n%s", a, b)
		}
	}
}

func TestLockHeldProcFixture(t *testing.T) {
	diags := checkFixture(t, "lockheldproc", []*Analyzer{NewLockHeldSend()})
	// The two-hop finding's message must carry its whole witness chain.
	const chain = "(*node).forward2 → (*node).forward → (*node).send"
	found := false
	for _, d := range diags {
		found = found || strings.Contains(d.Message, chain)
	}
	if !found {
		t.Errorf("no diagnostic carried the chain %q", chain)
	}
}
