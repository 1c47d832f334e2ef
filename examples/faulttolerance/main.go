// Faulttolerance demonstrates the exactly-once story of paper §3.3 as a
// property of one state directory. Input (tuples AND query changelog events)
// is logged to the directory's write-ahead log, checkpoints cut the log at
// barrier-aligned quiescent points, and each result epoch commits in the
// same manifest as the checkpoint that closes it. The job is killed twice —
// once between checkpoints, once with its final WAL append literally torn in
// half — and each successor is built from the directory path alone: it
// truncates the torn frame, restores the latest completed checkpoint,
// replays the surviving suffix, and regenerates only the results that had not
// committed. The final output is checked against a run that never crashed.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"astream"
	"astream/internal/checkpoint"
	"astream/internal/core"
	"astream/internal/durable"
)

var cfg = core.Config{Streams: 1, Parallelism: 2, WatermarkEvery: 1}

func query() *core.Query {
	return astream.NewAggregation(astream.Tumbling(10), astream.AggSum, 0, astream.True())
}

func tuple(i int) astream.Tuple {
	t := astream.Tuple{Key: int64(i % 2), Time: astream.Time(i)}
	t.Fields[0] = 1
	return t
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// open starts an incarnation on the directory. The path is all it is given.
func open(dir string) *checkpoint.Runner {
	r, err := checkpoint.Open(cfg, dir, durable.Options{})
	must(err)
	return r
}

func ingest(r *checkpoint.Runner, from, to int) {
	for i := from; i <= to; i++ {
		must(r.Ingest(0, tuple(i)))
	}
}

// status prints what the directory holds, as the incarnation sees it.
func status(when string, r *checkpoint.Runner) {
	k, _ := r.Store().LatestComplete()
	committed, err := r.Store().Committed()
	must(err)
	fmt.Printf("%s: checkpoint %d, %d log records, %d results committed\n",
		when, k, r.Store().WAL().Len(), len(committed))
}

func main() {
	dir, err := os.MkdirTemp("", "astream-faulttolerance-*")
	must(err)
	defer os.RemoveAll(dir)

	// Incarnation 1: deploy the query, checkpoint once, run on.
	r := open(dir)
	must(r.Submit(query()))
	ingest(r, 1, 35)
	id, err := r.Checkpoint()
	must(err)
	fmt.Printf("checkpoint %d durable: epoch %d's results and the WAL fsynced, manifest renamed into place\n", id, id-1)
	ingest(r, 36, 50)
	status("incarnation 1 before the crash", r)

	// 💥 The process dies between checkpoints. Results of the open epoch were
	// only buffered: they are lost, and nothing else is.
	r.Crash()
	fmt.Println("CRASH — in-memory state gone")

	// Incarnation 2 opens the directory cold: the latest completed checkpoint
	// restores, the log suffix past it replays, and the window results the
	// crash lost are regenerated — while epoch 0, already committed, is not
	// exposed again.
	r = open(dir)
	status("incarnation 2 after reopen", r)
	ingest(r, 51, 70)
	id, err = r.Checkpoint()
	must(err)
	fmt.Printf("checkpoint %d durable\n", id)
	ingest(r, 71, 85)

	// 💥 This time the process dies mid-append: tearing the last WAL frame
	// reproduces what the filesystem may leave behind when the crash
	// interrupts a write.
	r.Crash()
	tearLastFrame(dir)
	fmt.Println("CRASH — final WAL append torn mid-frame")

	// Incarnation 3: the torn frame is truncated (it was never acknowledged
	// durable — acknowledgment past the last checkpoint is opportunistic
	// until the next one) and the surviving suffix replays. The source
	// re-sends the one tuple whose append tore, then the job finishes.
	r = open(dir)
	status("incarnation 3 after reopen", r)
	ingest(r, 85, 85)
	final, err := r.Finish()
	must(err)

	// Self-check: a clean, never-crashed run of the same input, cut at the
	// same two points, must produce byte-identical output.
	want := cleanRun()
	verdict := "EXACTLY ONCE — byte-identical to the clean run"
	if len(final) != len(want) {
		verdict = fmt.Sprintf("DIVERGED: %d results vs %d clean", len(final), len(want))
	} else {
		for i := range final {
			if final[i] != want[i] {
				verdict = fmt.Sprintf("DIVERGED at result %d", i)
				break
			}
		}
	}
	fmt.Printf("after two crashes: %d results — %s\n", len(final), verdict)
	for _, r := range final {
		fmt.Println("  ", r)
	}
}

// tearLastFrame chops bytes off the end of the newest WAL segment,
// simulating an append the crash interrupted halfway.
func tearLastFrame(dir string) {
	entries, err := os.ReadDir(filepath.Join(dir, "wal"))
	must(err)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	last := filepath.Join(dir, "wal", names[len(names)-1])
	info, err := os.Stat(last)
	must(err)
	must(os.Truncate(last, info.Size()-3))
}

// cleanRun produces the reference output: the same 85 tuples and the same
// two checkpoints on a fresh directory, no crash.
func cleanRun() []string {
	dir, err := os.MkdirTemp("", "astream-faulttolerance-clean-*")
	must(err)
	defer os.RemoveAll(dir)
	r := open(dir)
	must(r.Submit(query()))
	ingest(r, 1, 35)
	_, err = r.Checkpoint()
	must(err)
	ingest(r, 36, 70)
	_, err = r.Checkpoint()
	must(err)
	ingest(r, 71, 85)
	out, err := r.Finish()
	must(err)
	return out
}
