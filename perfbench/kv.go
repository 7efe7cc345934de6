package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/server"
	"repro/internal/shard"
)

// The store is built as romulusd builds it by default: 4 romlog shards of
// 8 MiB per twin, flight recorder and quarantine on, group commit at up to
// 256 ops per batch with no linger (server.Options zero values).
const (
	kvShards   = 4
	kvRegion   = 8 << 20
	kvConns    = 2
	kvKeys     = 32768 // prefilled, split between the connections by parity
	kvCounters = 8     // INCR counters per connection
	kvPairs    = 16    // MULTI pairs per connection
	kvBogus    = 16    // keys per shard the crashed transaction overwrites
	zipfS      = 1.1   // kv-read key skew
)

func kvOptions() shard.Options {
	return shard.Options{
		Shards:           kvShards,
		RegionSize:       kvRegion,
		Variant:          core.RomLog,
		QuarantineFaults: true,
		Blackbox:         true,
	}
}

// kvServer is one server over the store, with its own registry so a traced
// and an untraced server can share the store without sharing counters.
type kvServer struct {
	srv   *server.Server
	reg   *obs.Registry
	spans *obs.SpanRecorder
	ln    net.Listener
	done  chan error
}

func startServer(st *shard.Store, reg *obs.Registry, traced bool) (*kvServer, error) {
	s := &kvServer{reg: reg, done: make(chan error, 1)}
	if traced {
		s.spans = obs.NewSpanRecorder(reg, 4096)
	}
	s.srv = server.New(st, server.Options{Registry: reg, Spans: s.spans})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.ln = ln
	go func() { s.done <- s.srv.Serve(ln) }()
	// One round trip proves Serve is accepting, so a Shutdown that follows
	// cannot overtake it.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	if _, err := fmt.Fprintf(conn, "PING\n"); err != nil {
		return nil, fmt.Errorf("ping: %w", err)
	}
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		return nil, fmt.Errorf("ping: %w", err)
	}
	conn.Close()
	return s, nil
}

func (s *kvServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// kvEnv is one set-up store with its servers and clients.
type kvEnv struct {
	st      *shard.Store
	plain   *kvServer
	traced  *kvServer // nil unless the run is traced
	clients []*kvClient
	bogus   [][]string // per shard: keys the crashed transaction overwrites
}

// setupKV builds the store, prefills every key the clients own, starts the
// servers and derives the clients' generators from seed.
func setupKV(seed int64, read, trace bool) (*kvEnv, error) {
	opts := kvOptions()
	opts.Metrics = obs.NewRegistry()
	st, err := shard.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	e := &kvEnv{st: st, bogus: make([][]string, kvShards)}
	for id := 0; id < kvConns; id++ {
		c := &kvClient{id: id, mix: writeMix, window: writeWindow, rng: rand.New(rand.NewSource(seed*7919 + int64(id)))}
		if read {
			c.mix, c.window = readMix, readWindow
		}
		for g := id; g < kvKeys; g += kvConns {
			c.keys = append(c.keys, fmt.Sprintf("k%07d", g))
		}
		c.lastSeq = make([]uint64, len(c.keys))
		if read {
			c.zipf = rand.NewZipf(c.rng, zipfS, 1, uint64(len(c.keys)-1))
		}
		for j := 0; j < kvCounters; j++ {
			c.ctrKeys = append(c.ctrKeys, fmt.Sprintf("ctr:%d:%d", id, j))
		}
		c.ctrVal, c.ctrFails = make([]int64, kvCounters), make([]int64, kvCounters)
		for j := 0; j < kvPairs; j++ {
			a := fmt.Sprintf("pair:%d:%d:a", id, j)
			b := ""
			for t := 0; b == "" || st.ShardFor([]byte(b)) == st.ShardFor([]byte(a)); t++ {
				b = fmt.Sprintf("pair:%d:%d:b%d", id, j, t)
			}
			c.pairA, c.pairB = append(c.pairA, a), append(c.pairB, b)
		}
		c.pairSeq = make([]uint64, kvPairs)
		e.clients = append(e.clients, c)
	}
	for _, c := range e.clients {
		for _, k := range c.keys {
			if err := st.Put([]byte(k), makeValue(k, c.id, 0)); err != nil {
				return nil, fmt.Errorf("prefill %s: %w", k, err)
			}
			if sh := st.ShardFor([]byte(k)); len(e.bogus[sh]) < kvBogus {
				e.bogus[sh] = append(e.bogus[sh], k)
			}
		}
		for _, k := range c.ctrKeys {
			if err := st.Put([]byte(k), []byte("0")); err != nil {
				return nil, fmt.Errorf("prefill %s: %w", k, err)
			}
		}
		for j := range c.pairA {
			for _, k := range []string{c.pairA[j], c.pairB[j]} {
				if err := st.Put([]byte(k), makeValue(k, c.id, 0)); err != nil {
					return nil, fmt.Errorf("prefill %s: %w", k, err)
				}
			}
		}
	}
	if e.plain, err = startServer(st, opts.Metrics, false); err != nil {
		return nil, err
	}
	if trace {
		if e.traced, err = startServer(st, obs.NewRegistry(), true); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *kvEnv) close() error {
	var first error
	for _, s := range []*kvServer{e.plain, e.traced} {
		if s != nil {
			if err := s.stop(); err != nil && first == nil {
				first = err
			}
		}
	}
	if err := e.st.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// kvSnap adds the store's and the active server's own counters.
type kvSnap struct {
	snapshot
	coord    pmem.Stats // coordinator device (also in dev)
	blackbox uint64
	xcommits uint64
	batches  uint64 // group commit, on the active server
	batchOps uint64
	solo     uint64
	flushes  uint64
	lines    uint64 // request lines the clients sent
}

func (e *kvEnv) snap(srv *kvServer) kvSnap {
	var s kvSnap
	devs := e.st.Devices()
	for _, d := range devs {
		addStats(&s.dev, d.Stats())
	}
	s.coord = devs[len(devs)-1].Stats()
	for i := 0; i < e.st.NumShards(); i++ {
		eng := e.st.Engine(i)
		addTx(&s.eng, eng.Stats())
		s.allocs += eng.AllocStats().Allocs
	}
	store := e.st.Registry().Snapshot().Counters
	s.blackbox = store["blackbox_record_total"]
	s.xcommits = store["xshard_commit_total"]
	s.batches = srv.reg.Counter("net_group_batch_total").Load()
	s.batchOps = srv.reg.Counter("net_group_batch_ops_total").Load()
	s.solo = srv.reg.Counter("net_group_solo_total").Load()
	s.flushes = srv.reg.Counter("net_reply_flush_total").Load()
	for _, c := range e.clients {
		s.user += c.userBytes
		s.lines += c.lines
	}
	s.host = sampleHost()
	return s
}

// kvDelta accumulates kvSnap differences over the segments of one kind.
type kvDelta struct {
	totals
	coord                          pmem.Stats
	blackbox, xcommits             uint64
	batches, batchOps, solo, flush uint64
	lines                          uint64
}

func (d *kvDelta) add(a, b kvSnap, ops uint64) {
	d.totals.add(a.snapshot, b.snapshot, ops)
	addStats(&d.coord, subStats(b.coord, a.coord))
	d.blackbox += b.blackbox - a.blackbox
	d.xcommits += b.xcommits - a.xcommits
	d.batches += b.batches - a.batches
	d.batchOps += b.batchOps - a.batchOps
	d.solo += b.solo - a.solo
	d.flush += b.flushes - a.flushes
	d.lines += b.lines - a.lines
}

// segment runs both connections against srv for dur and returns the
// operations completed.
func (e *kvEnv) segment(srv *kvServer, dur time.Duration, record bool) (uint64, error) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, len(e.clients))
	conns := make([]net.Conn, len(e.clients))
	for i, c := range e.clients {
		conn, err := net.Dial("tcp", srv.ln.Addr().String())
		if err != nil {
			for _, o := range conns[:i] {
				o.Close()
			}
			return 0, fmt.Errorf("dial: %w", err)
		}
		conns[i] = conn
		c.record, c.completed = record, 0
		for op := range c.hist {
			c.hist[op] = NewHist()
		}
	}
	for i, c := range e.clients {
		wg.Add(1)
		go func(i int, c *kvClient) {
			defer wg.Done()
			errs[i] = c.run(conns[i], &stop)
		}(i, c)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	var ops uint64
	for i, c := range e.clients {
		conns[i].Close()
		ops += c.completed
	}
	return ops, errors.Join(errs...)
}

var errInFlight = errors.New("crash image taken; rolling back")

// crashImages returns the media images a power failure would leave while
// every shard is inside an update transaction that has overwritten some of
// its keys: each shard's recovery must copy its back twin over main. The
// transactions then roll back, so the live store is unchanged.
func (e *kvEnv) crashImages() ([][]byte, error) {
	n := e.st.NumShards()
	ready := make(chan struct{}, n)
	release := make(chan struct{})
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			errs <- e.st.Update(i, func(tx ptm.Tx, db *kvstore.DB) error {
				for _, k := range e.bogus[i] {
					if err := db.PutTx(tx, []byte(k), []byte("in-flight overwrite")); err != nil {
						return err
					}
				}
				ready <- struct{}{}
				<-release
				return errInFlight
			})
		}(i)
	}
	var first error
	waiting, done := n, 0
	for waiting > 0 {
		select {
		case <-ready:
			waiting--
		case err := <-errs:
			waiting--
			done++
			if first == nil {
				first = fmt.Errorf("in-flight transaction ended early: %v", err)
			}
		}
	}
	var imgs [][]byte
	if first == nil {
		for _, d := range e.st.Devices() {
			imgs = append(imgs, d.CrashImage(pmem.DropAll))
		}
	}
	close(release)
	for ; done < n; done++ {
		if err := <-errs; !errors.Is(err, errInFlight) && first == nil {
			first = fmt.Errorf("in-flight transaction: %v", err)
		}
	}
	return imgs, first
}

// recoverKV reopens a store on devs after rewriting them with the crash
// images, timing only the reopen (crash recovery of every shard, the
// coordinator and the placement map).
func recoverKV(devs []*pmem.Device, imgs [][]byte) (*shard.Store, time.Duration, error) {
	for i, img := range imgs {
		restore(devs[i], img)
	}
	runtime.GC()
	t0 := time.Now()
	st, err := shard.Reopen(devs, kvOptions())
	dt := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("reopen: %w", err)
	}
	if q := st.Quarantined(); len(q) > 0 {
		st.Close()
		return nil, 0, fmt.Errorf("reopen quarantined shards %v", q)
	}
	return st, dt, nil
}

// verifyKV checks every client's keys through get and returns the live
// user bytes.
func (e *kvEnv) verifyKV(r *result, when string, get func([]byte) ([]byte, error)) uint64 {
	var live uint64
	for _, c := range e.clients {
		n, errs := c.verify(get)
		live += n
		for _, err := range errs {
			r.fail("%s: conn %d: %v", when, c.id, err)
		}
	}
	return live
}

// runKV runs kv-write or kv-read.
func runKV(cfg runConfig) (*result, error) {
	read := cfg.workload == "kv-read"
	r := newResult(cfg.workload, kvOpNames[:]...)

	var setups []float64
	var e *kvEnv
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
			releaseMemory()
		}
		t0 := time.Now()
		var err error
		if e, err = setupKV(cfg.seed, read, cfg.trace); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.metrics["setup_s"] = median(setups)

	if _, err := e.segment(e.plain, warmup, false); err != nil {
		return nil, err
	}

	lat, multi := newLatencies(), NewHist()
	var plain, traced kvDelta
	start := sampleHost()
	for i := 0; i < cfg.segments(); i++ {
		srv, d := e.plain, &plain
		if cfg.trace && i%2 == 1 {
			srv, d = e.traced, &traced
		}
		a := e.snap(srv)
		// An untraced run records every segment; a traced run records its
		// traced segments, which the per-layer metrics describe.
		record := !cfg.trace || srv == e.traced
		ops, err := e.segment(srv, segment, record)
		if err != nil {
			return nil, err
		}
		d.add(a, e.snap(srv), ops)
		if record {
			seg := NewHist()
			for _, c := range e.clients {
				for op := range c.hist {
					seg.Merge(c.hist[op])
				}
				multi.Merge(c.hist[opMulti])
			}
			lat.add(seg)
		}
	}
	r.steal = start.to(sampleHost()).stealPct
	r.metrics["mem_peak_mib"] = peakRSSMiB()

	for _, c := range e.clients {
		for op := range c.ops {
			r.ops[kvOpNames[op]].attempted += c.ops[op].attempted
			r.ops[kvOpNames[op]].failed += c.ops[op].failed
		}
		for _, p := range c.problems {
			r.fail("%s", p)
		}
		if c.bad > len(c.problems) {
			r.fail("conn %d: %d more wrong replies", c.id, c.bad-len(c.problems))
		}
	}
	live := e.verifyKV(r, "after load", e.st.Get)
	var allocated uint64
	for i := 0; i < e.st.NumShards(); i++ {
		allocated += e.st.Engine(i).AllocStats().AllocatedBytes
	}

	imgs, err := e.crashImages()
	if err != nil {
		return nil, err
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	devs := make([]*pmem.Device, len(imgs))
	for i, img := range imgs {
		devs[i] = pmem.FromImage(img, pmem.Model{})
	}
	var recoveries []float64
	for i := 0; i < recoveryRounds; i++ {
		if i > 0 {
			time.Sleep(recoveryGap)
		}
		st, dt, err := recoverKV(devs, imgs)
		if err != nil {
			return nil, err
		}
		recoveries = append(recoveries, dt.Seconds())
		if i == 0 {
			e.verifyKV(r, "after crash and reopen", st.Get)
		}
		if err := st.Close(); err != nil {
			return nil, fmt.Errorf("close recovered store: %w", err)
		}
	}
	r.metrics["recovery_s"] = minimum(recoveries)

	d := &plain
	if cfg.trace {
		d = &traced
	}
	ops := float64(d.ops)
	fences := float64(d.dev.Pfences + d.dev.Psyncs)
	r.metrics["throughput_ops_s"] = median(d.rates)
	r.metrics["latency_p50_us"], r.metrics["client.latency_p99_us"] = lat.quantilesUs()
	r.metrics["cpu_us_per_op"] = ratio(float64(d.cpu.Microseconds()), ops)
	r.metrics["fences_per_op"] = ratio(fences, ops)
	r.metrics["pwbs_per_op"] = ratio(float64(d.dev.Pwbs), ops)
	r.metrics["media_bytes_per_user_byte"] = ratio(float64(d.dev.BytesPersisted), float64(d.user))
	r.metrics["space_bytes_per_user_byte"] = ratio(2*float64(allocated), float64(live))
	if cfg.trace {
		kvLayers(r, e, d, lat.all, multi, allocated, median(plain.rates))
	}
	return r, nil
}

// kvLayers fills the traced run's per-layer metrics and ledger from the
// traced segments' counters and the traced server's span histograms.
func kvLayers(r *result, e *kvEnv, d *kvDelta, lat, multi *Hist, allocated uint64, plainRate float64) {
	reg := e.traced.reg
	// mean is a registry histogram's exact mean, from its Sum and Count.
	mean := func(name string) float64 {
		h := reg.Histogram(name)
		return ratio(float64(h.Sum()), float64(h.Count()))
	}
	m := r.metrics
	req := reg.Histogram("net_span_request_ns")
	m["server.parse_us"] = mean("net_span_parse_ns") / 1e3
	m["server.reply_flush_us"] = mean("net_span_reply_flush_ns") / 1e3
	m["server.request_us"] = mean("net_span_request_ns") / 1e3
	m["group.queue_wait_us"] = mean("net_span_queue_wait_ns") / 1e3
	m["group.batch_form_us"] = mean("net_span_batch_form_ns") / 1e3
	m["group.psync_wait_us"] = mean("net_span_psync_wait_ns") / 1e3
	m["server.replies_per_flush"] = ratio(float64(req.Count()), float64(d.flush))
	m["client.residual_us"] = lat.Mean()/1e3*ratio(float64(d.ops), float64(d.lines)) - m["server.request_us"]
	m["group.ops_per_batch"] = ratio(float64(d.batchOps), float64(d.batches))
	m["group.conns_per_batch"] = mean("net_group_batch_conns")
	m["group.solo_reruns"] = float64(d.solo)

	ops, txs := float64(d.ops), float64(d.eng.UpdateTxs)
	m["shard.update_tx_per_op"] = ratio(txs, ops)
	m["shard.read_tx_per_op"] = ratio(float64(d.eng.ReadTxs), ops)
	m["coord.exec_latency_p50_us"] = 0
	if multi.Count() > 0 {
		m["coord.exec_latency_p50_us"] = multi.Quantile(0.5) / 1e3
	}
	m["coord.fences_per_xshard"] = ratio(float64(d.coord.Pfences+d.coord.Psyncs), float64(d.xcommits))
	m["pstruct.body_us"], m["core.update_us"], m["core.commit_us"] = 0, 0, 0
	engineLayers(m, d.eng, float64(d.allocs), allocated)
	pmemLayers(m, d.dev, pmem.Model{}, txs)
	m["blackbox.records_per_batch"] = ratio(float64(d.blackbox), float64(d.batches))
	runtimeLayers(m, &d.totals, r.steal)
	m["trace.overhead_pct"] = 100 * ratio(plainRate-median(d.rates), plainRate)

	// The server's phases are contiguous, so per request they sum to the
	// request span; the residual is what the span boundaries miss.
	var phases float64
	parts := ""
	for _, p := range []string{"parse", "queue_wait", "batch_form", "psync_wait", "reply_flush"} {
		h := reg.Histogram("net_span_" + p + "_ns")
		share := ratio(float64(h.Sum()), float64(req.Count())) / 1e3
		phases += share
		parts += fmt.Sprintf(" %s=%.3f", p, share)
	}
	m["ledger.server_residual_us"] = m["server.request_us"] - phases
	m["ledger.core_residual_us"] = 0
	r.ledger = append(r.ledger,
		fmt.Sprintf("server us/request:%s sum=%.3f request=%.3f residual=%.3f (n=%d requests)",
			parts, phases, m["server.request_us"], m["ledger.server_residual_us"], req.Count()),
		fmt.Sprintf("client us/request: client=%.3f server=%.3f residual=%.3f (n=%d ops, %d requests)",
			lat.Mean()/1e3*ratio(float64(d.ops), float64(d.lines)), m["server.request_us"], m["client.residual_us"], d.ops, d.lines),
		fmt.Sprintf("trace overhead: untraced %.0f ops/s, traced %.0f ops/s, %.2f%%",
			plainRate, median(d.rates), m["trace.overhead_pct"]))
}

// engineLayers fills the core, flatcombine and alloc metrics.
func engineLayers(m map[string]float64, es ptm.TxStats, allocs float64, allocated uint64) {
	txs := float64(es.UpdateTxs)
	m["core.ops_per_batch"] = ratio(float64(es.BatchOps), float64(es.Batches))
	m["core.replicated_bytes_per_tx"] = ratio(float64(es.ReplicatedBytes), txs)
	m["core.replicate_extents_per_tx"] = ratio(float64(es.ReplicateExtents), txs)
	m["flatcombine.combine_us_per_batch"] = ratio(float64(es.CombineNs), float64(es.Batches)) / 1e3
	m["alloc.allocs_per_tx"] = ratio(allocs, txs)
	m["alloc.live_bytes"] = float64(allocated)
}

// pmemLayers fills the pmem metrics, per engine update transaction.
func pmemLayers(m map[string]float64, s pmem.Stats, model pmem.Model, txs float64) {
	m["pmem.pwbs_per_tx"] = ratio(float64(s.Pwbs), txs)
	m["pmem.fences_per_tx"] = ratio(float64(s.Pfences+s.Psyncs), txs)
	m["pmem.stores_per_tx"] = ratio(float64(s.Stores), txs)
	m["pmem.lines_persisted_per_tx"] = ratio(float64(s.LinesPersisted), txs)
	m["pmem.bytes_persisted_per_tx"] = ratio(float64(s.BytesPersisted), txs)
	modelNs := float64(s.Pwbs)*float64(model.PwbLatency) + float64(s.Pfences)*float64(model.PfenceLatency) +
		float64(s.Psyncs)*float64(model.PsyncLatency)
	m["pmem.model_us_per_tx"] = ratio(modelNs, txs) / 1e3
}

// runtimeLayers fills the Go runtime and host metrics.
func runtimeLayers(m map[string]float64, t *totals, steal float64) {
	m["runtime.allocs_per_op"] = ratio(float64(t.mallocs), float64(t.ops))
	m["runtime.alloc_bytes_per_op"] = ratio(float64(t.allocBytes), float64(t.ops))
	m["runtime.gc_cpu_fraction"] = ratio(t.gcWeighted, t.cpu.Seconds())
	m["host.steal_pct"] = steal
}
