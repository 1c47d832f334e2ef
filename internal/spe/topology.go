package spe

import "fmt"

// DefaultChannelCap is the bounded capacity of exchange channels; bounded
// channels are what make backpressure (and therefore sustainable-throughput
// measurement) real.
const DefaultChannelCap = 256

// DefaultExchangeBatch is the per-edge exchange batch size: tuples
// accumulate in per-edge vectors of this many entries before one channel
// operation ships them (see Emitter).
const DefaultExchangeBatch = 64

// Topology is a DAG of operators under construction. Build it, then Deploy.
type Topology struct {
	nodes         []*Node
	channelCap    int
	exchangeBatch int // DefaultExchangeBatch; in-package tests shrink it
	nowNanos      func() int64
}

// NewTopology creates an empty topology.
func NewTopology() *Topology {
	return &Topology{channelCap: DefaultChannelCap, exchangeBatch: DefaultExchangeBatch}
}

// SetChannelCap overrides the exchange channel capacity (must be ≥ 1).
func (t *Topology) SetChannelCap(n int) {
	if n < 1 {
		n = 1
	}
	t.channelCap = n
}

// SetNowNanos injects the monotonic clock that arms the time-based flush of
// partial exchange batches (see Emitter); without one, partial batches ship
// on control broadcasts and idle flushes only. The spe package never reads
// the wall clock itself (DESIGN.md §8).
func (t *Topology) SetNowNanos(now func() int64) {
	t.nowNanos = now
}

// Node is one operator in the topology.
type Node struct {
	id          int
	name        string
	parallelism int
	newLogic    func(instance int) Logic
	inputs      []input
	isSource    bool
	// nodeOf maps instance -> cluster node (for the cluster simulation);
	// nil when unassigned (all co-located).
	nodeOf []int
	// edgeWrap, when non-nil, wraps cross-node sends (serialization cost).
	topo *Topology
}

type input struct {
	from *Node
	mode PartitionMode
}

// Name returns the operator's name.
func (n *Node) Name() string { return n.name }

// Parallelism returns the instance count.
func (n *Node) Parallelism() int { return n.parallelism }

// AddSource adds a source operator. Sources have no inputs; their logic's
// OnTuple is never called — instead the job hands each source instance a
// *SourceContext to push elements through (see Job.SourceContext).
func (t *Topology) AddSource(name string, parallelism int) *Node {
	n := &Node{
		id:          len(t.nodes),
		name:        name,
		parallelism: parallelism,
		isSource:    true,
		topo:        t,
	}
	t.nodes = append(t.nodes, n)
	return n
}

// AddOperator adds an operator consuming from the given inputs. newLogic is
// invoked once per instance at deploy time.
func (t *Topology) AddOperator(name string, parallelism int, newLogic func(instance int) Logic, inputs ...Input) *Node {
	n := &Node{
		id:          len(t.nodes),
		name:        name,
		parallelism: parallelism,
		newLogic:    newLogic,
		topo:        t,
	}
	for _, in := range inputs {
		n.inputs = append(n.inputs, input{from: in.From, mode: in.Mode})
	}
	t.nodes = append(t.nodes, n)
	return n
}

// Input names an upstream node and the partitioning of its output.
type Input struct {
	From *Node
	Mode PartitionMode
}

// KeyedInput routes tuples by key hash.
func KeyedInput(from *Node) Input { return Input{From: from, Mode: Keyed} }

// GlobalInput delivers all tuples to instance 0.
func GlobalInput(from *Node) Input { return Input{From: from, Mode: Global} }

// ForwardInput delivers tuples 1:1 from upstream instance i to downstream
// instance i, declaring that no repartitioning is needed on this edge. The
// consumer must have this as its only input and match the upstream
// parallelism (Validate). When the upstream additionally has no other
// consumers and the paired instances are co-located, Deploy fuses the edge
// into an operator chain with no channel hop at all.
func ForwardInput(from *Node) Input { return Input{From: from, Mode: Forward} }

// AssignNodes places instances of an operator onto cluster nodes round-robin
// over nodeCount nodes. Inter-node edges pay the codec cost when the job is
// deployed WithEdgeCodec.
func (n *Node) AssignNodes(nodeCount int) {
	if nodeCount < 1 {
		nodeCount = 1
	}
	n.nodeOf = make([]int, n.parallelism)
	for i := range n.nodeOf {
		n.nodeOf[i] = i % nodeCount
	}
}

func (n *Node) nodeFor(instance int) int {
	if n.nodeOf == nil {
		return 0
	}
	return n.nodeOf[instance]
}

// Validate checks the DAG for structural problems.
func (t *Topology) Validate() error {
	for _, n := range t.nodes {
		if n.parallelism < 1 {
			return fmt.Errorf("spe: operator %q has parallelism %d", n.name, n.parallelism)
		}
		if n.isSource && len(n.inputs) > 0 {
			return fmt.Errorf("spe: source %q has inputs", n.name)
		}
		if !n.isSource && len(n.inputs) == 0 {
			return fmt.Errorf("spe: operator %q has no inputs", n.name)
		}
		if !n.isSource && n.newLogic == nil {
			return fmt.Errorf("spe: operator %q has no logic", n.name)
		}
		for _, in := range n.inputs {
			if in.from.topo != t {
				return fmt.Errorf("spe: operator %q consumes from a different topology", n.name)
			}
			if in.from.id >= n.id {
				return fmt.Errorf("spe: operator %q input %q does not precede it (cycle?)", n.name, in.from.name)
			}
			if in.mode == Forward {
				if in.from.parallelism != n.parallelism {
					return fmt.Errorf("spe: forward edge %q -> %q requires equal parallelism (%d != %d)",
						in.from.name, n.name, in.from.parallelism, n.parallelism)
				}
				if len(n.inputs) != 1 {
					return fmt.Errorf("spe: operator %q has a forward input from %q but %d inputs; a forward edge must be its consumer's only input",
						n.name, in.from.name, len(n.inputs))
				}
			}
		}
	}
	return nil
}

// chainNext maps each node to the single downstream node its output edge is
// fused with, for every edge that satisfies the chaining rules:
//
//   - the edge is Forward mode and is the consumer's only input (Validate
//     already guarantees equal parallelism for forward edges);
//   - the upstream has exactly one consumer edge in the whole topology
//     (multi-consumer forward nodes fall back to a real 1:1 exchange);
//   - every instance pair (i, i) is co-located — a chain never spans
//     cluster nodes, so fused calls never need the codec.
//
// Maximal runs of fused edges become one deployed instance per index (see
// Deploy). Iteration is over the ordered node slice, so the plan is
// deterministic.
func (t *Topology) chainNext() map[*Node]*Node {
	consumers := make(map[*Node]int, len(t.nodes))
	for _, n := range t.nodes {
		for _, in := range n.inputs {
			consumers[in.from]++
		}
	}
	next := make(map[*Node]*Node, len(t.nodes))
	for _, n := range t.nodes {
		if len(n.inputs) != 1 || n.inputs[0].mode != Forward {
			continue
		}
		u := n.inputs[0].from
		if consumers[u] != 1 {
			continue
		}
		colocated := true
		for i := 0; i < n.parallelism; i++ {
			if u.nodeFor(i) != n.nodeFor(i) {
				colocated = false
				break
			}
		}
		if colocated {
			next[u] = n
		}
	}
	return next
}

// Chains returns the operator chains Deploy would fuse, as ordered name
// lists head-first. Only runs of length ≥ 2 are reported.
func (t *Topology) Chains() [][]string {
	next := t.chainNext()
	inChain := make(map[*Node]bool, len(next))
	for _, n := range t.nodes {
		if d := next[n]; d != nil {
			inChain[d] = true
		}
	}
	var chains [][]string
	for _, n := range t.nodes {
		if inChain[n] || next[n] == nil {
			continue // not a chain head
		}
		var names []string
		for m := n; m != nil; m = next[m] {
			names = append(names, m.name)
		}
		chains = append(chains, names)
	}
	return chains
}
