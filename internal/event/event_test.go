package event

import (
	"testing"
	"time"

	"astream/internal/bitset"
)

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindTuple:     "tuple",
		KindWatermark: "watermark",
		KindChangelog: "changelog",
		KindBarrier:   "barrier",
		KindEOS:       "eos",
		Kind(99):      "kind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(k), k.String(), want)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500)
	if tm.Millis() != 1500 {
		t.Fatal("Millis")
	}
	if tm.Duration() != 1500*time.Millisecond {
		t.Fatal("Duration")
	}
	if tm.String() != "t1500" {
		t.Fatalf("String = %q", tm.String())
	}
	if MinTime >= 0 || MaxTime <= 0 || MinTime >= MaxTime {
		t.Fatal("time bounds")
	}
}

func TestElementConstructors(t *testing.T) {
	if (Element{}).Kind != KindTuple {
		t.Fatal("the zero element must not read as a control element")
	}
	if e := NewWatermark(9); e.Kind != KindWatermark || e.Watermark != 9 {
		t.Fatal("NewWatermark")
	}
	if e := NewBarrier(3); e.Kind != KindBarrier || e.Barrier != 3 {
		t.Fatal("NewBarrier")
	}
	if e := EOS(); e.Kind != KindEOS {
		t.Fatal("EOS")
	}
	payload := struct{ X int }{7}
	if e := NewChangelog(payload, 42); e.Kind != KindChangelog || e.Watermark != 42 || e.Changelog == nil {
		t.Fatal("NewChangelog")
	}
}

func TestJoinedTupleAsTuple(t *testing.T) {
	jt := JoinedTuple{
		Key:         5,
		Left:        [NumFields]int64{1, 2, 3, 4, 5},
		Right:       [NumFields]int64{9, 9, 9, 9, 9},
		Time:        77,
		QuerySet:    bitset.FromIndexes(2),
		IngestNanos: 123,
	}
	tu := jt.AsTuple()
	if tu.Key != 5 || tu.Fields != jt.Left || tu.Time != 77 || tu.IngestNanos != 123 {
		t.Fatalf("AsTuple = %+v", tu)
	}
	if !tu.QuerySet.Test(2) {
		t.Fatal("query-set lost")
	}
}
