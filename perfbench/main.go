// Command perfbench is the repository's end-to-end benchmark. It drives
// three closed-loop workloads from one process, each built from seeded
// inputs, checks every answer independently of the program, and prints one
// JSON result line:
//
//	kv-write  two pipelined connections to a romulusd-configured server:
//	          SETs, counter INCRs and cross-shard MULTI pairs
//	kv-read   the same store and connections: 90% GET, 10% SET, Zipf keys
//	ptm-map   one goroutine of put/remove transactions on a persistent hash
//	          map through the Romulus engine on the pcm latency model
//
// Usage, from the repository root:
//
//	perfbench --workload kv-write --seed 1 --seconds 10 --trace 0
//	perfbench --steady 5 --seconds 10 [--workload kv-read]
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the per-layer metrics of a run that alternates traced and untraced
// segments, plus a ledger of how the layers add up. --steady runs each
// workload as two interleaved sets of runs and reports whether the sets
// agree within BENCHMARK.json's bounds. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

const (
	setupRounds = 3 // set-ups per run; setup_s is their median
	// recoveryRounds reopens repeat identical work on identical images, so
	// interference from the host only adds time: recovery_s is the fastest
	// of them. recoveryGap spaces them out, because a reopen is memory-bound
	// and the shared cache's state drifts over seconds.
	recoveryRounds = 9
	recoveryGap    = 300 * time.Millisecond
	warmup         = time.Second
	segment        = time.Second // throughput is the median segment rate
)

var workloads = map[string]func(runConfig) (*result, error){
	"kv-write": runKV,
	"kv-read":  runKV,
	"ptm-map":  runMap,
}

var workloadOrder = []string{"kv-write", "kv-read", "ptm-map"}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// segments is the number of measured segments; a traced run needs at least
// one untraced and one traced segment.
func (c runConfig) segments() int {
	n := int(time.Duration(c.seconds) * time.Second / segment)
	if c.trace && n < 2 {
		n = 2
	}
	if n < 1 {
		n = 1
	}
	return n
}

func main() {
	workload := flag.String("workload", "", "kv-write, kv-read or ptm-map (with --steady: empty runs all)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	steady := flag.Int("steady", 0, "run each workload as two interleaved sets of this many runs and compare them")
	flag.Parse()

	if *steady > 0 {
		if err := runSteady(*workload, *steady, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", workloadOrder)
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := r.print(os.Stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
