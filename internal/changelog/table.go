package changelog

import (
	"fmt"

	"astream/internal/bitset"
)

// Table implements the dynamic-programming changelog-set table of Equation 1
// (paper §2.1.2):
//
//	CL[i][j] = 1                        if i == j
//	CL[i][j] = CL[i-1][j] & CL[i]       if i > j
//
// Row i is built from row i-1 with one AND per retained column, so relating
// slice i to any earlier slice j is O(1) lookups instead of an O(i-j)
// AND-chain. Shared operators consult Rel(i, j) before joining or merging
// state across time slots: a zero result means the slots share no query and
// the work is skipped entirely.
//
// Epoch 0 is the implicit empty workload before the first changelog; epoch k
// (k ≥ 1) is the state after changelog with Seq == k. Rows older than the
// oldest live slice are released with Compact.
type Table struct {
	base uint64       // epoch of rows[0]
	logs []*Changelog // logs[i] transitioned epoch base+i -> base+i+1
	// rows[i] corresponds to epoch e_i = base+i; rows[i][j] = Rel(e_i, base+j)
	// for j <= i. rows[i][i] is the all-unchanged set of epoch e_i. Snapshots
	// carry rows[0][0] only; the rest is Equation 1's recurrence over logs,
	// rebuilt by TableFromSnapshot via Add.
	rows [][]bitset.Bits
}

// NewTable creates a table rooted at epoch 0 (empty workload, zero slots).
func NewTable() *Table {
	t := &Table{}
	t.rows = append(t.rows, []bitset.Bits{bitset.AllUpTo(0)})
	return t
}

// Add appends a changelog, creating the row for its epoch. Changelogs must
// arrive in Seq order with no gaps.
func (t *Table) Add(cl *Changelog) error {
	expect := t.base + uint64(len(t.rows))
	if cl.Seq != expect {
		return fmt.Errorf("changelog: table expected seq %d, got %d", expect, cl.Seq)
	}
	prev := t.rows[len(t.rows)-1]
	row := make([]bitset.Bits, len(prev)+1)
	for j := range prev {
		row[j] = prev[j].And(cl.Set)
	}
	row[len(prev)] = bitset.AllUpTo(cl.Slots)
	t.rows = append(t.rows, row)
	t.logs = append(t.logs, cl)
	return nil
}

// Latest returns the most recent epoch number.
func (t *Table) Latest() uint64 { return t.base + uint64(len(t.rows)) - 1 }

// Base returns the oldest retained epoch.
func (t *Table) Base() uint64 { return t.base }

// Rel returns the changelog-set of epoch i with respect to epoch j
// (Equation 1). Rel is symmetric: Rel(i,j) == Rel(j,i). Both epochs must be
// retained (≥ Base) and ≤ Latest: the operators compact only epochs no live
// slice holds, so asking for another is a bug, and Rel panics.
func (t *Table) Rel(i, j uint64) bitset.Bits {
	if j > i {
		i, j = j, i
	}
	if j < t.base || i > t.Latest() {
		panic(fmt.Sprintf("changelog: Rel(%d,%d) outside retained [%d,%d]", i, j, t.base, t.Latest()))
	}
	return t.rows[i-t.base][j-t.base]
}

// Log returns the changelog that produced epoch e (Base < e ≤ Latest).
func (t *Table) Log(e uint64) (*Changelog, error) {
	if e <= t.base || e > t.Latest() {
		return nil, fmt.Errorf("changelog: log for epoch %d not retained", e)
	}
	return t.logs[e-t.base-1], nil
}

// Compact drops rows and columns for epochs older than keepFrom. Rel calls
// touching dropped epochs fail afterwards. Compact(t.Latest()) keeps only the
// newest epoch.
func (t *Table) Compact(keepFrom uint64) {
	if keepFrom <= t.base {
		return
	}
	if keepFrom > t.Latest() {
		keepFrom = t.Latest()
	}
	drop := int(keepFrom - t.base)
	t.rows = t.rows[drop:]
	for i := range t.rows {
		t.rows[i] = t.rows[i][drop:]
	}
	t.logs = t.logs[drop:]
	t.base = keepFrom
}

// RetainedRows reports how many epochs the table currently holds (for tests
// and memory accounting).
func (t *Table) RetainedRows() int { return len(t.rows) }

// RelChain computes Rel(i,j) by the naive AND-chain over individual
// changelog-sets, without the DP table. It exists as the reference
// implementation for property tests and the Equation-1 ablation benchmark.
func RelChain(logs []*Changelog, i, j uint64) bitset.Bits {
	if j > i {
		i, j = j, i
	}
	// Epoch k (k≥1) is produced by logs[k-1]. Rel(i,j) = AND of Set for
	// epochs j+1..i; Rel(i,i) = all-unchanged at epoch i.
	var slotsAt = func(e uint64) int {
		if e == 0 {
			return 0
		}
		return logs[e-1].Slots
	}
	out := bitset.AllUpTo(slotsAt(i))
	for k := j + 1; k <= i; k++ {
		out.AndInPlace(logs[k-1].Set)
	}
	return out
}
