package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"astream/internal/core"
	"astream/internal/durable"
	"astream/internal/fault"
)

// The disk sweep fails every disk operation of one canonical script, one
// operation per run, through the durable layer's one Hook seam. An injected
// crash and a real failure of the operation reach the same error check, so
// an error check the sweep never fails at is one no disk failure exercises.

// sweepRun is one run of the script: the directory, the options every open
// uses, and the live incarnation.
type sweepRun struct {
	t    *testing.T
	cfg  core.Config
	dir  string
	opts durable.Options
	r    *Runner
	out  []string // what the last finish committed
}

// sweepAct is one public call of the script, or a damage the test does to
// the directory itself.
type sweepAct struct {
	name string
	run  func(s *sweepRun) error
}

// sweepScript is the canonical script: open a fresh directory, submit, stop
// and ingest across WAL rolls through two checkpoints, finish; then tear the
// log's tail and rot the latest checkpoint, reopen — which truncates the
// tail, demotes the checkpoint, restores its predecessor and re-cuts it
// during replay — and finish again.
func sweepScript() []sweepAct {
	open := sweepAct{"open", func(s *sweepRun) error {
		r, err := Open(s.cfg, s.dir, s.opts)
		s.r = r
		return err
	}}
	finish := sweepAct{"finish", func(s *sweepRun) error {
		out, err := s.r.Finish()
		s.r, s.out = nil, out
		return err
	}}
	acts := []sweepAct{open}
	for i, st := range workload(5, 2, 6, -1, testQuery(core.KindAggregation)) {
		acts = append(acts, sweepAct{fmt.Sprintf("step %d (kind %d)", i, st.kind), func(s *sweepRun) error { return apply(s.r, st) }})
	}
	damage := sweepAct{"damage", func(s *sweepRun) error {
		// Rot first: finding the latest checkpoint opens a store, which
		// would cut a torn tail off before the script's reopen sees it.
		damageDeposit(s.t, s.dir, latestOnDisk(s.t, s.dir), func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b })
		segs, err := filepath.Glob(filepath.Join(s.dir, "wal", "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			s.t.Fatalf("no WAL segment to tear: %v", err)
		}
		sort.Strings(segs)
		f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			s.t.Fatal(err)
		}
		// A frame header promising 16 bytes, then 2 of them.
		if _, err := f.Write([]byte{16, 0, 0, 0, 1, 2, 3, 4, 5, 6}); err != nil {
			s.t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			s.t.Fatal(err)
		}
		return nil
	}}
	return append(acts, finish, damage, open, finish)
}

// runScript runs acts[from:] and returns the index of the first act that
// failed, with its error, or len(acts) and nil.
func (s *sweepRun) runScript(acts []sweepAct, from int) (int, error) {
	for i := from; i < len(acts); i++ {
		if err := acts[i].run(s); err != nil {
			return i, err
		}
	}
	return len(acts), nil
}

func sweepConfig() core.Config {
	cfg := testConfig(nil)
	cfg.Parallelism, cfg.Nodes = 1, 1
	return cfg
}

// TestDiskSweepFailsEveryOperation runs the script once with a plan that only
// counts, listing every (class, target, N) the durable layer performs, and
// asserts that the script performs every class. Then, one subtest per class
// (named as the class prints: mkdir, read-file, ..., sync-dir), it reruns the
// script for each operation of that class with exactly that operation
// crashing. The public call that performed it must return an error wrapping
// durable.ErrInjectedCrash, and a fault-free successor — opened on the
// directory, resuming at that call — must finish with the same committed
// output as the run that never faulted. A mutation row names the classes
// that reach its check, as TestDiskSweepFailsEveryOperation/<class>.
func TestDiskSweepFailsEveryOperation(t *testing.T) {
	defer noGoroutineLeft(t)()
	acts := sweepScript()
	counting := fault.NewDiskPlan()
	clean := &sweepRun{t: t, cfg: sweepConfig(), dir: t.TempDir(), opts: durable.Options{Hook: counting, SegmentBytes: 256}}
	if i, err := clean.runScript(acts, 0); err != nil {
		t.Fatalf("counting run: %s: %v", acts[i].name, err)
	}
	if len(clean.out) == 0 {
		t.Fatal("counting run committed nothing")
	}
	entries := counting.Seen()
	per := map[durable.Op][]fault.DiskOp{}
	walCreates := 0
	for _, e := range entries {
		per[e.Class] = append(per[e.Class], e)
		if e.Class == durable.OpCreate && e.Target == fault.TargetWAL {
			walCreates++
		}
	}
	for op := durable.Op(0); op < durable.NumOps; op++ {
		if len(per[op]) == 0 {
			t.Errorf("the script performs no %v", op)
		}
	}
	if walCreates < 3 {
		t.Errorf("the script created %d WAL segments; it must ingest across rolls", walCreates)
	}
	t.Logf("%d operations", len(entries))

	for op := durable.Op(0); op < durable.NumOps; op++ {
		t.Run(op.String(), func(t *testing.T) {
			for _, e := range per[op] {
				sweepOne(t, acts, e, clean.out)
			}
		})
	}
}

// sweepOne reruns the script with operation e crashing, resumes it fault-free
// on the same directory, and compares what it committed with want.
func sweepOne(t *testing.T, acts []sweepAct, e fault.DiskOp, want []string) {
	plan := fault.NewDiskPlan(e)
	s := &sweepRun{t: t, cfg: sweepConfig(), dir: t.TempDir(), opts: durable.Options{Hook: plan, SegmentBytes: 256}}
	at, err := s.runScript(acts, 0)
	if len(plan.Fired()) != 1 || err == nil {
		t.Errorf("%v: fired %v, and the script failed at %d of %d: %v", e, plan.Fired(), at, len(acts), err)
		return
	}
	if !errors.Is(err, durable.ErrInjectedCrash) {
		t.Errorf("%v: %s failed without the injected crash: %v", e, acts[at].name, err)
	}
	if s.r != nil {
		s.r.Crash()
		s.r = nil
	}
	s.opts.Hook = nil
	if acts[at].name != "open" {
		if err := acts[0].run(s); err != nil {
			t.Errorf("%v: fault-free reopen after %s: %v", e, acts[at].name, err)
			return
		}
	}
	if i, err := s.runScript(acts, at); err != nil {
		t.Errorf("%v: fault-free resume at %s: %s: %v", e, acts[at].name, acts[i].name, err)
		if s.r != nil {
			s.r.Crash()
		}
		return
	}
	if fmt.Sprint(s.out) != fmt.Sprint(want) {
		t.Errorf("%v: crashed at %s, the directory committed %d results, want the %d of the run that never faulted", e, acts[at].name, len(s.out), len(want))
	}
}
