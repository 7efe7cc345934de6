package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one metric the benchmark reports, with its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the store sees; every workload
// reports all of them in an untraced run.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"setup_s", "s"},
	{"recovery_s", "s"},
	{"fences_per_op", "count"},
	{"pwbs_per_op", "count"},
	{"media_bytes_per_user_byte", "B/B"},
	{"space_bytes_per_user_byte", "B/B"},
	{"mem_peak_mib", "MiB"},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// cross reads 0 there (ptm-map has no server; the kv workloads do not call
// pstruct or time the engine directly).
var perLayer = []metricDef{
	{"server.parse_us", "us"},
	{"server.reply_flush_us", "us"},
	{"server.replies_per_flush", "count"},
	{"server.request_us", "us"},
	{"client.residual_us", "us"},
	// The client p99 is reported here, not gated end to end: under a few
	// percent of hypervisor steal its spread over ten runs reached 0.9.
	{"client.latency_p99_us", "us"},
	{"group.queue_wait_us", "us"},
	{"group.batch_form_us", "us"},
	{"group.psync_wait_us", "us"},
	{"group.ops_per_batch", "count"},
	{"group.conns_per_batch", "count"},
	{"group.solo_reruns", "count"},
	{"shard.update_tx_per_op", "count"},
	{"shard.read_tx_per_op", "count"},
	{"coord.exec_latency_p50_us", "us"},
	{"coord.fences_per_xshard", "count"},
	{"pstruct.body_us", "us"},
	{"core.update_us", "us"},
	{"core.commit_us", "us"},
	{"core.ops_per_batch", "count"},
	{"core.replicated_bytes_per_tx", "B"},
	{"core.replicate_extents_per_tx", "count"},
	{"flatcombine.combine_us_per_batch", "us"},
	{"alloc.allocs_per_tx", "count"},
	{"alloc.live_bytes", "B"},
	{"pmem.pwbs_per_tx", "count"},
	{"pmem.fences_per_tx", "count"},
	{"pmem.stores_per_tx", "count"},
	{"pmem.lines_persisted_per_tx", "count"},
	{"pmem.bytes_persisted_per_tx", "B"},
	{"pmem.model_us_per_tx", "us"},
	{"blackbox.records_per_batch", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_fraction", "1"},
	{"host.steal_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"ledger.server_residual_us", "us"},
	{"ledger.core_residual_us", "us"},
}

// opCount is one operation type's tally.
type opCount struct{ attempted, failed uint64 }

// result is what one workload run produced.
type result struct {
	workload string
	correct  bool
	problems []string
	ops      map[string]*opCount
	metrics  map[string]float64
	ledger   []string
	steal    float64
}

func newResult(workload string, types ...string) *result {
	r := &result{workload: workload, correct: true, ops: map[string]*opCount{}, metrics: map[string]float64{}}
	for _, t := range types {
		r.ops[t] = &opCount{}
	}
	return r
}

// fail records a correctness violation; the run reports correct=false.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) totals() (attempted, failed uint64) {
	for _, c := range r.ops {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// print writes the run's stamp, per-type op tallies, ledger and problems as
// comment lines, then the result object as the last line.
func (r *result) print(w io.Writer, defs []metricDef) error {
	fmt.Fprintf(w, "# host %s\n", stamp(r.steal))
	types := make([]string, 0, len(r.ops))
	for t := range r.ops {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Fprintf(w, "# ops workload=%s type=%s attempted=%d failed=%d\n", r.workload, t, r.ops[t].attempted, r.ops[t].failed)
	}
	for _, l := range r.ledger {
		fmt.Fprintf(w, "# ledger %s\n", l)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# problem %s\n", p)
	}
	s := summary{Correct: r.correct, Metrics: map[string]metricOut{}}
	s.Attempted, s.Failed = r.totals()
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", r.workload, d.name)
		}
		s.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func minimum(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
