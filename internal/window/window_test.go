package window

import (
	"math/rand"
	"testing"
	"testing/quick"

	"astream/internal/event"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{TumblingSpec(10), true},
		{TumblingSpec(0), false},
		{TumblingSpec(-5), false},
		{Spec{Kind: Tumbling, Length: 10, Slide: 5}, false},
		{SlidingSpec(10, 5), true},
		{SlidingSpec(10, 10), true},
		{SlidingSpec(10, 11), false},
		{SlidingSpec(10, 0), false},
		{SlidingSpec(0, 0), false},
		{SessionSpec(3), true},
		{SessionSpec(0), false},
		{Spec{Kind: Kind(9)}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%v) = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
}

func TestAssignTumbling(t *testing.T) {
	s := TumblingSpec(10)
	for _, tc := range []struct {
		t          event.Time
		start, end event.Time
	}{
		{0, 0, 10}, {9, 0, 10}, {10, 10, 20}, {15, 10, 20}, {-1, -10, 0}, {-10, -10, 0},
	} {
		ws := s.Assign(tc.t)
		if len(ws) != 1 {
			t.Fatalf("Assign(%v) returned %d windows, want 1", tc.t, len(ws))
		}
		if ws[0].Start != tc.start || ws[0].End != tc.end {
			t.Errorf("Assign(%v) = %v, want [%v,%v)", tc.t, ws[0], tc.start, tc.end)
		}
	}
}

func TestAssignSliding(t *testing.T) {
	s := SlidingSpec(10, 5)
	ws := s.Assign(12)
	// t=12 belongs to [5,15) and [10,20).
	if len(ws) != 2 || ws[0] != (Extent{5, 15}) || ws[1] != (Extent{10, 20}) {
		t.Fatalf("Assign(12) = %v", ws)
	}
	// Every returned window must contain t; windows ascending.
	rng := rand.New(rand.NewSource(5))
	specs := []Spec{SlidingSpec(10, 3), SlidingSpec(7, 7), SlidingSpec(100, 1), SlidingSpec(9, 4)}
	for _, sp := range specs {
		for trial := 0; trial < 200; trial++ {
			tt := event.Time(rng.Int63n(1000) - 100)
			ws := sp.Assign(tt)
			// Reference: windows start at every multiple of slide in
			// (t-length, t].
			want := 0
			for k := int64(tt) - int64(sp.Length); k <= int64(tt); k++ {
				if k > int64(tt)-int64(sp.Length) && k%int64(sp.slide()) == 0 {
					want++
				}
			}
			if len(ws) != want {
				t.Fatalf("%v Assign(%v): %d windows, want %d", sp, tt, len(ws), want)
			}
			for i, w := range ws {
				if !w.Contains(tt) {
					t.Fatalf("%v Assign(%v): window %v does not contain t", sp, tt, w)
				}
				if w.End-w.Start != sp.Length {
					t.Fatalf("%v: window %v has wrong length", sp, w)
				}
				if i > 0 && ws[i-1].Start >= w.Start {
					t.Fatalf("%v: windows not ascending: %v", sp, ws)
				}
			}
		}
	}
}

func TestWindowsEndingIn(t *testing.T) {
	s := SlidingSpec(10, 5)
	got := s.WindowsEndingIn(10, 25, nil)
	// Ends at 15, 20, 25 → windows [5,15) [10,20) [15,25).
	want := []Extent{{5, 15}, {10, 20}, {15, 25}}
	if len(got) != len(want) {
		t.Fatalf("WindowsEndingIn = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WindowsEndingIn = %v, want %v", got, want)
		}
	}
	if ws := s.WindowsEndingIn(10, 10, nil); len(ws) != 0 {
		t.Fatalf("empty interval should yield no windows, got %v", ws)
	}
	// Boundary semantics: (lo, hi] — a window ending exactly at lo is
	// excluded, at hi included.
	if ws := s.WindowsEndingIn(15, 15, nil); len(ws) != 0 {
		t.Fatalf("(15,15] should be empty, got %v", ws)
	}
	if ws := s.WindowsEndingIn(14, 15, nil); len(ws) != 1 || ws[0] != (Extent{5, 15}) {
		t.Fatalf("(14,15] = %v", ws)
	}
}

func TestNextEdge(t *testing.T) {
	// Epoch-aligned in both directions: starts ≡ 0 (mod 4), ends ≡ 2
	// (mod 4) because length 10 ≡ 2.
	s := SlidingSpec(10, 4)
	cases := []struct{ t, want event.Time }{
		{0, 2}, {2, 4}, {3, 4}, {4, 6}, {9, 10}, {10, 12}, {11, 12}, {12, 14},
	}
	for _, c := range cases {
		if got := s.NextEdge(c.t); got != c.want {
			t.Errorf("NextEdge(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestNextEdgeIsNextBoundaryExhaustive(t *testing.T) {
	// Brute force: collect all edges in a range, compare.
	specs := []Spec{TumblingSpec(7), SlidingSpec(10, 3), SlidingSpec(6, 6), SlidingSpec(13, 5)}
	for _, sp := range specs {
		edges := map[event.Time]bool{}
		sl := int64(sp.slide())
		for k := int64(-30); k < 40; k++ {
			edges[event.Time(k*sl)] = true
			edges[event.Time(k*sl+int64(sp.Length))] = true
		}
		for tt := event.Time(-20); tt < 100; tt++ {
			want := event.MaxTime
			for e := range edges {
				if e > tt && e < want {
					want = e
				}
			}
			if got := sp.NextEdge(tt); got != want {
				t.Fatalf("%v NextEdge(%v) = %v, want %v", sp, tt, got, want)
			}
		}
	}
}

func TestLastWindowEndCovering(t *testing.T) {
	s := SlidingSpec(10, 5)
	// Slice starting at 12: last window starting ≤ 12 is [10,20).
	if got := s.LastWindowEndCovering(12); got != 20 {
		t.Errorf("LastWindowEndCovering(12) = %v, want 20", got)
	}
	if got := s.LastWindowEndCovering(10); got != 20 {
		t.Errorf("LastWindowEndCovering(10) = %v, want 20", got)
	}
	// Consistency with Assign: for any t, max end of assigned windows.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		tt := event.Time(rng.Int63n(500))
		ws := s.Assign(tt)
		maxEnd := ws[len(ws)-1].End
		if got := s.LastWindowEndCovering(tt); got != maxEnd {
			t.Fatalf("LastWindowEndCovering(%v) = %v, want %v", tt, got, maxEnd)
		}
	}
}

func TestExtentPredicates(t *testing.T) {
	e := Extent{10, 20}
	if !e.Contains(10) || e.Contains(20) || e.Contains(9) {
		t.Error("Contains boundary semantics wrong")
	}
	if !e.Overlaps(Extent{19, 30}) || e.Overlaps(Extent{20, 30}) {
		t.Error("Overlaps boundary semantics wrong")
	}
	if !e.Covers(Extent{10, 20}) || e.Covers(Extent{9, 20}) || e.Covers(Extent{10, 21}) {
		t.Error("Covers semantics wrong")
	}
}

func TestQuickAssignContainment(t *testing.T) {
	f := func(rawT int64, rawLen, rawSlide uint16) bool {
		l := int64(rawLen%500) + 1
		sl := int64(rawSlide)%l + 1
		sp := SlidingSpec(event.Time(l), event.Time(sl))
		tt := event.Time(rawT % 100000)
		for _, w := range sp.Assign(tt) {
			if !w.Contains(tt) {
				return false
			}
			if int64(w.Start)%sl != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSessionStateBasic(t *testing.T) {
	s := NewSessionState(5)
	s.Add(10, 1)
	s.Add(12, 2) // merges: within gap
	s.Add(30, 4) // separate session
	if s.Open() != 2 {
		t.Fatalf("open sessions = %d, want 2", s.Open())
	}
	// Watermark 17: session [10,13) closes at 13+5=18 > 17 → nothing.
	if got := s.Harvest(17); len(got) != 0 {
		t.Fatalf("harvest(17) = %v, want none", got)
	}
	got := s.Harvest(18)
	if len(got) != 1 || got[0].Sum != 3 || got[0].Count != 2 || got[0].Extent != (Extent{10, 13}) {
		t.Fatalf("harvest(18) = %+v", got)
	}
	if s.Open() != 1 {
		t.Fatalf("open sessions = %d, want 1", s.Open())
	}
}

func TestSessionMergeAcrossGapBridge(t *testing.T) {
	s := NewSessionState(5)
	s.Add(10, 1)
	s.Add(20, 1) // two sessions: [10,11) and [20,21), gap 9 ≥ 5
	if s.Open() != 2 {
		t.Fatalf("open = %d, want 2", s.Open())
	}
	s.Add(15, 1) // bridges both: 15-10 ≤ gap and 20-15 ≤ gap
	if s.Open() != 1 {
		t.Fatalf("after bridge open = %d, want 1", s.Open())
	}
	got := s.Harvest(100)
	if len(got) != 1 || got[0].Sum != 3 || got[0].Extent != (Extent{10, 21}) {
		t.Fatalf("bridged session = %+v", got)
	}
}

func TestSessionOutOfOrderAdds(t *testing.T) {
	s := NewSessionState(3)
	s.Add(20, 1)
	s.Add(10, 1)
	s.Add(12, 1) // joins the 10-session (diff 2 ≤ 3)
	s.Add(15, 1) // joins it too (diff 3 ≤ 3)
	s.Add(18, 1) // bridges to the 20-session (18-15=3 ≤ 3, 20-18=2 ≤ 3)
	if s.Open() != 1 {
		t.Fatalf("open = %d, want 1 merged", s.Open())
	}
	got := s.Harvest(1000)
	if got[0].Sum != 5 || got[0].Extent != (Extent{10, 21}) {
		t.Fatalf("merged = %+v", got)
	}
}

func TestSessionAgainstBruteForce(t *testing.T) {
	// Reference: sort times, split where gap ≥ Gap.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		gap := event.Time(rng.Int63n(10) + 1)
		s := NewSessionState(gap)
		n := rng.Intn(30) + 1
		times := make([]int64, n)
		for i := range times {
			times[i] = rng.Int63n(100)
			s.Add(event.Time(times[i]), 1)
		}
		got := s.Harvest(event.MaxTime)
		// brute force
		sorted := append([]int64(nil), times...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] < sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		var want []ClosedSession
		cur := ClosedSession{Extent: Extent{event.Time(sorted[0]), event.Time(sorted[0] + 1)}, Sum: 1, Count: 1}
		for _, tt := range sorted[1:] {
			if event.Time(tt)-cur.Extent.End < gap {
				cur.Sum++
				cur.Count++
				if event.Time(tt+1) > cur.Extent.End {
					cur.Extent.End = event.Time(tt + 1)
				}
			} else {
				want = append(want, cur)
				cur = ClosedSession{Extent: Extent{event.Time(tt), event.Time(tt + 1)}, Sum: 1, Count: 1}
			}
		}
		want = append(want, cur)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d sessions, want %d (gap=%d, times=%v)", trial, len(got), len(want), gap, times)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d session %d: %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestNextEdgeAll(t *testing.T) {
	specs := []Spec{TumblingSpec(10), SlidingSpec(8, 3), SessionSpec(4)}
	// Edges near t=5: tumbling 10, sliding starts 6, sliding ends 8,11,…
	if got := NextEdgeAll(specs, 5); got != 6 {
		t.Errorf("NextEdgeAll = %v, want 6", got)
	}
	if got := NextEdgeAll([]Spec{SessionSpec(3)}, 5); got != event.MaxTime {
		t.Errorf("session-only NextEdgeAll = %v, want MaxTime", got)
	}
	if got := NextEdgeAll(nil, 5); got != event.MaxTime {
		t.Errorf("empty NextEdgeAll = %v, want MaxTime", got)
	}
}

func TestKindString(t *testing.T) {
	if Tumbling.String() != "tumbling" || Sliding.String() != "sliding" || Session.String() != "session" {
		t.Error("Kind.String mismatch")
	}
}

func TestPrevEdgeExhaustive(t *testing.T) {
	// Brute force: PrevEdge must be the largest edge ≤ t.
	specs := []Spec{TumblingSpec(7), SlidingSpec(10, 3), SlidingSpec(6, 6), SlidingSpec(13, 5)}
	for _, sp := range specs {
		edges := map[event.Time]bool{}
		sl := int64(sp.slide())
		for k := int64(-30); k < 40; k++ {
			edges[event.Time(k*sl)] = true
			edges[event.Time(k*sl+int64(sp.Length))] = true
		}
		for tt := event.Time(-20); tt < 100; tt++ {
			want := event.MinTime
			for e := range edges {
				if e <= tt && e > want {
					want = e
				}
			}
			if got := sp.PrevEdge(tt); got != want {
				t.Fatalf("%v PrevEdge(%v) = %v, want %v", sp, tt, got, want)
			}
		}
	}
}

func TestPrevNextEdgeAdjoint(t *testing.T) {
	// NextEdge(PrevEdge(t)) > t ≥ PrevEdge(t) for any t on an edge-free
	// point; and PrevEdgeAll/NextEdgeAll bracket t.
	specs := []Spec{TumblingSpec(9), SlidingSpec(12, 5)}
	for tt := event.Time(0); tt < 120; tt++ {
		lo := PrevEdgeAll(specs, tt)
		hi := NextEdgeAll(specs, tt)
		if lo > tt || hi <= tt {
			t.Fatalf("edges do not bracket t=%v: [%v, %v)", tt, lo, hi)
		}
		if lo == event.MinTime || hi == event.MaxTime {
			t.Fatalf("time-based specs must produce finite edges at t=%v", tt)
		}
	}
	if got := PrevEdgeAll(nil, 5); got != event.MinTime {
		t.Fatalf("empty PrevEdgeAll = %v", got)
	}
	if got := PrevEdgeAll([]Spec{SessionSpec(3)}, 5); got != event.MinTime {
		t.Fatalf("session-only PrevEdgeAll = %v", got)
	}
}
