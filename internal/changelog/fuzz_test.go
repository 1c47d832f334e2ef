package changelog

import (
	"testing"

	"astream/internal/event"
	"astream/internal/wire/wiretest"
)

// fuzzTable builds a table through n registry epochs with a little churn, so
// seeds cover created and deleted assignments, reused slots and compaction.
func fuzzTable(f *testing.F, n int) (*Table, *Registry) {
	f.Helper()
	reg := NewRegistry(SlotReuse)
	tab := NewTable()
	for i := 0; i < n; i++ {
		var del []int
		if i%3 == 2 {
			del = []int{i}
		}
		cl, err := reg.Apply(event.Time(i), []int{i + 1, 100 + i}, del)
		if err != nil {
			f.Fatal(err)
		}
		if err := tab.Add(cl); err != nil {
			f.Fatal(err)
		}
	}
	return tab, reg
}

// maxTableFuzzInput caps the inputs the table targets decode. The table is
// quadratic in its retained epochs by design (Equation 1's DP rows), so "no
// more memory than a small multiple of the input" holds per epoch, not per
// byte; past a few dozen epochs the bound below would measure the DP, not
// the decoder.
const maxTableFuzzInput = 2 << 10

// FuzzTableFromSnapshot: arbitrary bytes yield an error or a table whose
// snapshot is exactly those bytes. Under testdata, an earlier layout's seed
// (version 2, whose changelogs carried their active set) is rejected by its
// version byte.
func FuzzTableFromSnapshot(f *testing.F) {
	tab, _ := fuzzTable(f, 6)
	snap := tab.AppendSnapshot(nil)
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add(append(append([]byte(nil), snap...), 0xEE))
	tab.Compact(4)
	f.Add(tab.AppendSnapshot(nil))
	f.Add(NewTable().AppendSnapshot(nil))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > maxTableFuzzInput {
			t.Skip()
		}
		wiretest.Bounded(t, in, func() {
			got, err := TableFromSnapshot(in)
			if err != nil {
				return
			}
			wiretest.Canonical(t, in, got.AppendSnapshot(nil))
		})
	})
}

// FuzzRegistryFromSnapshot: arbitrary bytes yield an error or a registry
// whose snapshot is exactly those bytes.
func FuzzRegistryFromSnapshot(f *testing.F) {
	_, reg := fuzzTable(f, 6)
	snap := reg.Snapshot()
	f.Add(snap)
	f.Add(snap[:len(snap)-5])
	f.Add(append(append([]byte(nil), snap...), 0xEE))
	f.Add(NewRegistry(AppendOnly).Snapshot())
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			got, err := RegistryFromSnapshot(in)
			if err != nil {
				return
			}
			wiretest.Canonical(t, in, got.Snapshot())
			// An accepted registry must be usable: the free list indexes
			// the slot table on the next creation.
			got.Apply(event.MaxTime, []int{1 << 40}, nil)
		})
	})
}
