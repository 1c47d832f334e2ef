package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// endToEndDef is one end-to-end metric's contract: its unit, which direction
// is better, the share of the parent's median by which it may get worse, and
// which of the five rounds' readings is the one reported. BENCHMARK.json
// carries the same table; TestSmoke holds the two together.
type endToEndDef struct {
	name   string
	unit   string
	better string
	bound  float64
	// timed metrics report the best round: whatever disturbs a round on a
	// shared machine — a busy sibling thread, a stall of the VM, a collection
	// cycle landing on a fire burst — only ever slows it down, so the least
	// disturbed round says most about the code. Memory readings have no such
	// one-sided noise and report the median round.
	timed bool
}

// endToEndDefs: README.md ("Bounds, from data") has the table of spreads the
// bounds came from.
var endToEndDefs = []endToEndDef{
	{"throughput_tup_s", "1/s", "higher", 0.25, true},
	{"result_delay_p50_ms", "ms", "lower", 0.25, true},
	{"live_heap_mb", "MiB", "lower", 0.02, false},
	{"peak_rss_mb", "MiB", "lower", 0.15, false},
	{"setup_s", "s", "lower", 0.25, true},
}

// reported picks the value an invocation reports from the rounds' readings.
func (d *endToEndDef) reported(rounds []float64) float64 {
	switch {
	case !d.timed || len(rounds) == 0:
		return median(rounds)
	case d.better == "higher":
		return slices.Max(rounds)
	}
	return slices.Min(rounds)
}

// invoke runs one full invocation of this binary in the acceptance driver's
// form and returns the result object from the last line of its output.
func invoke(self string, w *workload, seed int64, seconds float64) (*result, error) {
	cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// An invocation with failed operations exits 1 and still prints its
	// result, which says so; anything without a result line is an error.
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result line (%v): %w", w.name, seed, runErr, err)
	}
	return &r, nil
}

// selfcheckRuns is the number of invocations in each of the two sets.
const selfcheckRuns = 10

// runSelfcheck runs two sets of invocations of the same binary on the same
// seed — the same input, so that the spread is the machine's and not the
// input's — and prints per workload and end-to-end metric each set's median,
// quartiles and spread, how far the worst invocation strayed from its set's
// median, the bound the data asks for (twice the wider spread), and whether
// the second set's median is within the bound of the first. It returns 1 if
// any pair of sets disagrees or any spread exceeds its bound.
func runSelfcheck(self string, ws []*workload, seed int64, seconds float64) int {
	code := 0
	for _, w := range ws {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < selfcheckRuns; i++ {
				r, err := invoke(self, w, seed, seconds)
				if err != nil {
					fatal(1, err)
				}
				if !r.Correct {
					fmt.Printf("%-18s set %d run %d: %d of %d operations failed\n", w.name, s+1, i+1, r.Failed, r.Attempted)
					code = 1
				}
				for name, m := range r.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, d := range endToEndDefs {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			if worse > d.bound {
				verdict, code = "DISAGREE", 1
			}
			if d.name != "setup_s" && math.Max(spread(a), spread(b)) > d.bound {
				verdict, code = verdict+", SPREAD OVER BOUND", 1
			}
			for s, v := range [][]float64{a, b} {
				q1, q3 := quartiles(v)
				fmt.Printf("%-18s %-20s set %d  median %12.6g %-4s q1 %12.6g q3 %12.6g  spread %5.1f%%  worst run %5.1f%% off\n",
					w.name, d.name, s+1, median(v), d.unit, q1, q3, 100*spread(v), 100*worstDeviation(v))
			}
			fmt.Printf("%-18s %-20s set 2 is %+5.1f%% worse than set 1, bound %4.1f%% (2 x spread = %4.1f%%): %s\n",
				w.name, d.name, 100*worse, 100*d.bound, 200*math.Max(spread(a), spread(b)), verdict)
		}
	}
	return code
}

// worstDeviation is the largest distance of any value from the median, as a
// share of the median.
func worstDeviation(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	worst := 0.0
	for _, x := range v {
		worst = math.Max(worst, math.Abs(x-m)/math.Abs(m))
	}
	return worst
}
