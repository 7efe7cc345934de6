package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/pstruct"
	"repro/internal/ptm"
)

// ptm-map drives one pstruct.HashMap through core.Engine (romlog) on the
// pcm model, from one goroutine: every operation is its own durable
// transaction on the solo commit path.
const (
	mapRegion   = 8 << 20
	mapKeys     = 1 << 17 // key space; half of it is prefilled
	mapPrefillB = 1024    // puts per prefill transaction
	mapRoot     = 0
)

func mapConfig() core.Config { return core.Config{Variant: core.RomLog, Model: pmem.ModelPCM} }

const (
	opPut = iota
	opRemove
)

var mapOpNames = []string{"put", "remove"}

// mapEnv is the engine, the map and the benchmark's own Go-map model of it.
type mapEnv struct {
	eng   *core.Engine
	h     ptm.Handle
	m     *pstruct.HashMap
	model map[uint64]uint64
	rng   *rand.Rand
	seq   uint64

	ops       [2]opCount
	user      uint64
	hist      *Hist // the current segment's Update latencies
	record    bool
	traced    bool
	body      *Hist // traced: the HashMap call inside the transaction
	commit    *Hist // traced: body end to Update's return
	completed uint64
	bad       int
	problems  []string
}

func setupMap(seed int64) (*mapEnv, error) {
	eng, err := core.New(mapRegion, mapConfig())
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	h, err := eng.NewHandle()
	if err != nil {
		return nil, fmt.Errorf("handle: %w", err)
	}
	e := &mapEnv{eng: eng, h: h, model: make(map[uint64]uint64, mapKeys/2),
		rng: rand.New(rand.NewSource(seed)), body: NewHist(), commit: NewHist()}
	err = eng.Update(func(tx ptm.Tx) error {
		e.m, err = pstruct.NewHashMap(tx, mapRoot)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("new map: %w", err)
	}
	for k := uint64(0); k < mapKeys; k += 2 * mapPrefillB {
		err := eng.Update(func(tx ptm.Tx) error {
			for i := k; i < k+2*mapPrefillB && i < mapKeys; i += 2 {
				if _, err := e.m.Put(tx, i, mapValue(i, 0)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
		for i := k; i < k+2*mapPrefillB && i < mapKeys; i += 2 {
			e.model[i] = mapValue(i, 0)
		}
	}
	return e, nil
}

func (e *mapEnv) problem(format string, args ...any) {
	e.bad++
	if len(e.problems) < 10 {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// step runs one put or remove transaction and checks its outcome against
// the model.
func (e *mapEnv) step() {
	op := e.rng.Intn(2)
	key := uint64(e.rng.Intn(mapKeys))
	e.seq++
	val := mapValue(key, e.seq)
	e.ops[op].attempted++
	_, present := e.model[key]
	var found bool
	var tBody0, tBody1 time.Time
	t0 := time.Now()
	err := e.h.Update(func(tx ptm.Tx) error {
		if e.traced {
			tBody0 = time.Now()
		}
		var err error
		if op == opPut {
			inserted, perr := e.m.Put(tx, key, val)
			found, err = !inserted, perr
		} else {
			found, err = e.m.Remove(tx, key)
		}
		if e.traced {
			tBody1 = time.Now()
		}
		return err
	})
	t1 := time.Now()
	e.completed++
	if err != nil {
		e.ops[op].failed++
		if e.record {
			e.hist.Observe(failedNs)
		}
		return
	}
	if e.record {
		e.hist.Observe(uint64(t1.Sub(t0)))
		if e.traced {
			e.body.Observe(uint64(tBody1.Sub(tBody0)))
			e.commit.Observe(uint64(t1.Sub(tBody1)))
		}
	}
	if found != present {
		e.problem("%s %d: map reported present=%v, model says %v", mapOpNames[op], key, found, present)
	}
	if op == opPut {
		e.model[key] = val
		e.user += 16
	} else {
		delete(e.model, key)
		e.user += 8
	}
}

// verifyMap compares eng's map with the model, pair by pair, and checks the
// allocator's invariants.
func verifyMap(eng *core.Engine, m *pstruct.HashMap, model map[uint64]uint64) error {
	if err := eng.CheckHeap(); err != nil {
		return fmt.Errorf("heap: %w", err)
	}
	var n int
	var bad error
	err := eng.Read(func(tx ptm.Tx) error {
		n = m.Len(tx)
		seen := 0
		m.Range(tx, func(k, v uint64) bool {
			seen++
			if want, ok := model[k]; !ok || want != v {
				bad = fmt.Errorf("key %d holds %#x, model has %#x (present=%v)", k, v, want, ok)
				return false
			}
			return true
		})
		if bad == nil && seen != n {
			bad = fmt.Errorf("range visited %d pairs, Len says %d", seen, n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	if n != len(model) {
		return fmt.Errorf("map holds %d pairs, model %d", n, len(model))
	}
	return nil
}

// crashImage returns the media image a power failure would leave inside an
// update transaction that has overwritten and removed keys; the
// transaction then rolls back, leaving the live map unchanged.
func (e *mapEnv) crashImage() ([]byte, error) {
	var img []byte
	err := e.h.Update(func(tx ptm.Tx) error {
		for k := uint64(0); k < 64; k++ {
			if _, err := e.m.Put(tx, k, ^uint64(0)); err != nil {
				return err
			}
			if _, err := e.m.Remove(tx, k+1); err != nil {
				return err
			}
		}
		img = e.eng.Device().CrashImage(pmem.DropAll)
		return errInFlight
	})
	if !errors.Is(err, errInFlight) {
		return nil, fmt.Errorf("in-flight transaction: %v", err)
	}
	return img, nil
}

func (e *mapEnv) segment(dur time.Duration, record, traced bool) uint64 {
	e.record, e.traced, e.completed = record, traced, 0
	e.hist = NewHist()
	end := time.Now().Add(dur)
	for time.Now().Before(end) {
		e.step()
	}
	return e.completed
}

func (e *mapEnv) snap() snapshot {
	return snapshot{host: sampleHost(), dev: e.eng.Device().Stats(), eng: e.eng.Stats(),
		allocs: e.eng.AllocStats().Allocs, user: e.user}
}

func runMap(cfg runConfig) (*result, error) {
	r := newResult(cfg.workload, mapOpNames...)
	var setups []float64
	var e *mapEnv
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			e.h.Release()
			if err := e.eng.Close(); err != nil {
				return nil, err
			}
			e = nil
			releaseMemory()
		}
		t0 := time.Now()
		var err error
		if e, err = setupMap(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.eng.Close()
	defer e.h.Release()
	r.metrics["setup_s"] = median(setups)

	e.segment(warmup, false, false)
	lat := newLatencies()
	var plain, traced totals
	start := sampleHost()
	for i := 0; i < cfg.segments(); i++ {
		tr := cfg.trace && i%2 == 1
		d := &plain
		if tr {
			d = &traced
		}
		a := e.snap()
		record := !cfg.trace || tr
		ops := e.segment(segment, record, tr)
		d.add(a, e.snap(), ops)
		if record {
			lat.add(e.hist)
		}
	}
	r.steal = start.to(sampleHost()).stealPct
	r.metrics["mem_peak_mib"] = peakRSSMiB()
	for op := range e.ops {
		r.ops[mapOpNames[op]].attempted += e.ops[op].attempted
		r.ops[mapOpNames[op]].failed += e.ops[op].failed
	}
	for _, p := range e.problems {
		r.fail("%s", p)
	}
	if e.bad > len(e.problems) {
		r.fail("%d more wrong answers", e.bad-len(e.problems))
	}
	if err := verifyMap(e.eng, e.m, e.model); err != nil {
		r.fail("after load: %v", err)
	}
	allocated := e.eng.AllocStats().AllocatedBytes

	img, err := e.crashImage()
	if err != nil {
		return nil, err
	}
	dev := pmem.FromImage(img, pmem.ModelPCM)
	var recoveries []float64
	for i := 0; i < recoveryRounds; i++ {
		if i > 0 {
			time.Sleep(recoveryGap)
		}
		restore(dev, img)
		runtime.GC()
		t0 := time.Now()
		eng, err := core.Open(dev, mapConfig())
		dt := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		recoveries = append(recoveries, dt.Seconds())
		if i == 0 {
			if err := verifyMap(eng, pstruct.AttachHashMap(mapRoot), e.model); err != nil {
				r.fail("after crash and reopen: %v", err)
			}
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}
	r.metrics["recovery_s"] = minimum(recoveries)

	d := &plain
	if cfg.trace {
		d = &traced
	}
	ops := float64(d.ops)
	r.metrics["throughput_ops_s"] = median(d.rates)
	r.metrics["latency_p50_us"], r.metrics["client.latency_p99_us"] = lat.quantilesUs()
	r.metrics["cpu_us_per_op"] = ratio(float64(d.cpu.Microseconds()), ops)
	r.metrics["fences_per_op"] = ratio(float64(d.dev.Pfences+d.dev.Psyncs), ops)
	r.metrics["pwbs_per_op"] = ratio(float64(d.dev.Pwbs), ops)
	r.metrics["media_bytes_per_user_byte"] = ratio(float64(d.dev.BytesPersisted), float64(d.user))
	r.metrics["space_bytes_per_user_byte"] = ratio(2*float64(allocated), 16*float64(len(e.model)))
	if cfg.trace {
		mapLayers(r, e, d, lat.all, allocated, median(plain.rates))
	}
	return r, nil
}

// mapLayers fills the traced run's per-layer metrics and the engine ledger.
func mapLayers(r *result, e *mapEnv, d *totals, lat *Hist, allocated uint64, plainRate float64) {
	m := r.metrics
	for _, def := range perLayer {
		if _, ok := m[def.name]; !ok {
			m[def.name] = 0 // layers ptm-map does not cross
		}
	}
	txs := float64(d.eng.UpdateTxs)
	m["pstruct.body_us"] = e.body.Mean() / 1e3
	m["core.update_us"] = lat.Mean() / 1e3
	m["core.commit_us"] = e.commit.Mean() / 1e3
	engineLayers(m, d.eng, float64(d.allocs), allocated)
	pmemLayers(m, d.dev, pmem.ModelPCM, txs)
	runtimeLayers(m, d, r.steal)
	m["trace.overhead_pct"] = 100 * ratio(plainRate-median(d.rates), plainRate)
	// Update = (gather + begin marker) + body + (durable point + replicate):
	// the residual is the part before the body starts.
	m["ledger.core_residual_us"] = m["core.update_us"] - m["pstruct.body_us"] - m["core.commit_us"]
	r.ledger = append(r.ledger,
		fmt.Sprintf("core us/tx: body=%.3f commit=%.3f sum=%.3f update=%.3f residual=%.3f (n=%d tx)",
			m["pstruct.body_us"], m["core.commit_us"], m["pstruct.body_us"]+m["core.commit_us"],
			m["core.update_us"], m["ledger.core_residual_us"], lat.Count()),
		fmt.Sprintf("pmem us/tx: model=%.3f of update=%.3f", m["pmem.model_us_per_tx"], m["core.update_us"]),
		fmt.Sprintf("trace overhead: untraced %.0f ops/s, traced %.0f ops/s, %.2f%%",
			plainRate, median(d.rates), m["trace.overhead_pct"]))
}
