// Command ledger is the repository's performance ledger: four frozen
// workloads, each measured over five rounds of fresh child processes (timed
// metrics report the best round, memory readings the median round), with outputs checked against an independent reference and a
// separate traced run that attributes time to layers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func sinceSpawn(spec childSpec) float64 {
	return float64(time.Now().UnixNano()-spec.SpawnUnixNs) / 1e9
}

// runChild executes one child spec in this process.
func runChild(spec childSpec) (*childReport, error) {
	w, err := workloadByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	switch spec.Mode {
	case "closed":
		return runClosed(w, spec)
	case "open":
		return runOpen(w, spec)
	case "verify":
		return runVerify(w, spec)
	case "boundary":
		return runBoundary(w, spec, false)
	case "boundary-traced":
		return runBoundary(w, spec, true)
	case "stages":
		return runStages(w, spec)
	}
	return nil, fmt.Errorf("unknown child mode %q", spec.Mode)
}

func fatal(code int, args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"ledger:"}, args...)...)
	os.Exit(code)
}

// childMain runs one child spec and prints its report as one JSON line.
func childMain(arg string) {
	var spec childSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fatal(2, "bad child spec:", err)
	}
	rep, err := runChild(spec)
	if err != nil {
		fatal(1, err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fatal(1, err)
	}
}

func main() {
	workloadFlag := flag.String("workload", "all", "workload to run: one of the four names, or all")
	seed := flag.Int64("seed", 1, "input seed: same seed, same tuples, queries and schedule")
	seconds := flag.Float64("seconds", defaultSeconds, "measured seconds per workload; scales the fixed tuple counts, the clock never ends a phase")
	trace := flag.Int("trace", 0, "0: end-to-end rounds; 1: the traced run (per-layer metrics)")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the spans to this file as JSON")
	roundsFlag := flag.Int("rounds", rounds, "rounds per workload; timed metrics report the best of them, memory readings the median")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of invocations and report whether they agree within the bounds")
	child := flag.String("child", "", "internal: run one child spec (JSON) and print its report")
	flag.Parse()

	if *child != "" {
		childMain(*child)
		return
	}
	self, err := os.Executable()
	if err != nil {
		fatal(2, err)
	}
	var ws []*workload
	if *workloadFlag == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		w, err := workloadByName(*workloadFlag)
		if err != nil {
			fatal(2, err)
		}
		ws = []*workload{w}
	}
	if *seconds <= 0 || *roundsFlag < 1 {
		fatal(2, "-seconds and -rounds must be positive")
	}
	inv := &invocation{run: processRunner(self), seed: *seed, seconds: *seconds, density: 1, rounds: *roundsFlag, log: os.Stdout}
	if *selfcheck {
		os.Exit(runSelfcheck(self, ws, *seed, *seconds))
	}
	os.Exit(inv.main(ws, *trace == 1, *traceOut))
}

// main runs the invocation and prints the report; the last line of standard
// output is the result object of the last workload. It returns the exit code:
// 1 when any operation failed or any output was wrong.
func (inv *invocation) main(ws []*workload, traced bool, traceOut string) int {
	printEnvironment(inv.log, inv.environment(), ws, inv.seconds, inv.density)
	var outs []*outcome
	if traced {
		var spans []span
		for _, w := range ws {
			o, err := inv.trace(w)
			if err != nil {
				fatal(1, err)
			}
			outs = append(outs, o)
			spans = append(spans, o.spans...)
		}
		if traceOut != "" {
			if err := writeSpans(traceOut, spans); err != nil {
				fatal(1, err)
			}
		}
	} else {
		var err error
		if outs, err = inv.measure(ws); err != nil {
			fatal(1, err)
		}
	}
	code := 0
	for _, o := range outs {
		if traced {
			printPerLayer(inv.log, o)
		} else {
			printEndToEnd(inv.log, o)
		}
		if o.failed > 0 {
			code = 1
		}
	}
	for _, o := range outs {
		b, err := json.Marshal(o.result())
		if err != nil {
			fatal(1, err)
		}
		fmt.Fprintf(inv.log, "%s\n", b)
	}
	return code
}
