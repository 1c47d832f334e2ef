package core

import (
	"sort"

	"astream/internal/window"
)

// trigger collects the queries one window extent fires.
type trigger[Q any] struct {
	ext     window.Extent
	queries []Q
}

// triggerList is one watermark's triggers in (End, Start) order, shared by
// the aggregation and the join. Queries whose window specs put an edge on the
// same extent land in one trigger — the extent then fires once for all of
// them — in the order they were added; both operators add from their
// (slot, ID)-ordered active lists. The list is kept sorted by binary insert
// instead of a per-watermark sort, and trigger objects (with their query
// slices) are recycled across watermarks.
type triggerList[Q any] struct {
	list []*trigger[Q]
}

// reset empties the list, parking its triggers past the length for reuse.
func (l *triggerList[Q]) reset() { l.list = l.list[:0] }

// add appends q to ext's trigger, creating the trigger on first use.
func (l *triggerList[Q]) add(ext window.Extent, q Q) {
	//lint:ignore hotalloc sort.Search does not retain its predicate; the closure is stack-allocated
	i := sort.Search(len(l.list), func(i int) bool {
		t := l.list[i]
		if t.ext.End != ext.End {
			return t.ext.End > ext.End
		}
		return t.ext.Start > ext.Start
	})
	// Search returns the first trigger strictly after ext, so ext's own
	// trigger, if any, sits just before it.
	if i > 0 && l.list[i-1].ext == ext {
		tr := l.list[i-1]
		//lint:ignore hotalloc amortized: trigger query lists grow to the extent's query count once
		tr.queries = append(tr.queries, q)
		return
	}
	var tr *trigger[Q]
	if n := len(l.list); n < cap(l.list) {
		// Take the trigger parked at the new last position before the shift
		// below overwrites it.
		l.list = l.list[:n+1]
		tr = l.list[n]
	} else {
		//lint:ignore hotalloc amortized: trigger list grows to the per-watermark extent count once
		l.list = append(l.list, nil)
	}
	if tr == nil {
		//lint:ignore hotalloc cold: trigger objects are recycled across watermarks once allocated
		tr = &trigger[Q]{}
	}
	copy(l.list[i+1:], l.list[i:])
	tr.ext = ext
	//lint:ignore hotalloc amortized: trigger query lists grow to the extent's query count once
	tr.queries = append(tr.queries[:0], q)
	l.list[i] = tr
}
