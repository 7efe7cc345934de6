package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// steadyRun is one child run's parsed output.
type steadyRun struct {
	summary
	host string
}

func runOnce(workload string, seed int64, seconds int) (steadyRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return steadyRun{}, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return steadyRun{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r steadyRun
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.summary); err != nil {
		return steadyRun{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	for _, l := range lines {
		if h, ok := strings.CutPrefix(l, "# host "); ok {
			r.host = h
		}
	}
	return r, nil
}

// runSteady runs every workload (or the one named) as two sets of n runs,
// interleaved A B B A A B ..., each run with its own seed, and reports each
// end-to-end metric's quartiles per set and whether the sets agree: each
// spread (IQR over median, setup_s exempt) within the metric's bound, the
// second set's median no worse than the first's by more than the bound,
// and the same share of failed operations. "all sprd" is the spread of
// both sets pooled.
func runSteady(only string, n, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness mode reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := workloadOrder
	if only != "" {
		names = []string{only}
	}
	agreeAll := true
	for _, w := range names {
		var sets [2][]steadyRun
		for i := 0; i < n; i++ {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, s := range order {
				seed := int64(1 + i + 1000*s)
				r, err := runOnce(w, seed, seconds)
				if err != nil {
					return err
				}
				fmt.Printf("# run workload=%s set=%c seed=%d correct=%v attempted=%d failed=%d %s\n",
					w, 'A'+s, seed, r.Correct, r.Attempted, r.Failed, r.host)
				sets[s] = append(sets[s], r)
			}
		}
		agree := true
		var shares [2]float64
		for s, rs := range sets {
			var a, f uint64
			for _, r := range rs {
				a += r.Attempted
				f += r.Failed
				agree = agree && r.Correct
			}
			shares[s] = float64(f) / float64(a)
		}
		agree = agree && shares[0] == shares[1]
		fmt.Printf("%s failed share: A %g, B %g\n", w, shares[0], shares[1])
		fmt.Printf("%-9s %-26s %12s %12s %12s %8s | %12s %12s %12s %8s | %8s %7s %6s %s\n",
			w, "metric", "A q1", "A median", "A q3", "A sprd", "B q1", "B median", "B q3", "B sprd", "all sprd", "drift", "bound", "agree")
		for _, m := range spec.EndToEnd {
			var vals [2][]float64
			for s := range sets {
				for _, r := range sets[s] {
					vals[s] = append(vals[s], r.Metrics[m.Name].Value)
				}
			}
			a1, a2, a3 := quartiles(vals[0])
			b1, b2, b3 := quartiles(vals[1])
			sa, sb := (a3-a1)/math.Abs(a2), (b3-b1)/math.Abs(b2)
			c1, c2, c3 := quartiles(append(vals[0], vals[1]...))
			drift := (b2 - a2) / math.Abs(a2)
			if m.Better == "higher" {
				drift = -drift
			}
			ok := drift <= m.Bound && (m.Name == "setup_s" || (sa <= m.Bound && sb <= m.Bound))
			agree = agree && ok
			fmt.Printf("%-9s %-26s %12.5g %12.5g %12.5g %8.4f | %12.5g %12.5g %12.5g %8.4f | %8.4f %+7.4f %6.3f %v\n",
				w, m.Name, a1, a2, a3, sa, b1, b2, b3, sb, (c3-c1)/math.Abs(c2), drift, m.Bound, ok)
		}
		fmt.Printf("%s: sets agree: %v\n\n", w, agree)
		agreeAll = agreeAll && agree
	}
	if !agreeAll {
		return fmt.Errorf("the two sets of runs do not agree within BENCHMARK.json's bounds")
	}
	return nil
}
