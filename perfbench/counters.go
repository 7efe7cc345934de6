package main

import (
	"time"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// snapshot is one reading of the counters every workload's metrics derive
// from.
type snapshot struct {
	host   hostSample
	dev    pmem.Stats  // summed over every device the workload writes
	eng    ptm.TxStats // summed over engines
	allocs uint64      // allocator calls, summed over engines
	user   uint64      // user bytes written
}

// totals accumulates the differences between snapshots taken around the
// measured segments of one kind (untraced or traced).
type totals struct {
	dev                 pmem.Stats
	eng                 ptm.TxStats
	allocs, user, ops   uint64
	cpu                 time.Duration
	mallocs, allocBytes uint64
	gcWeighted          float64   // GC CPU fraction weighted by CPU seconds
	rates               []float64 // operations per second, one per segment
}

func (t *totals) add(a, b snapshot, ops uint64) {
	addStats(&t.dev, subStats(b.dev, a.dev))
	addTx(&t.eng, subTx(b.eng, a.eng))
	t.allocs += b.allocs - a.allocs
	t.user += b.user - a.user
	t.ops += ops
	h := a.host.to(b.host)
	t.cpu += h.cpu
	t.mallocs += h.mallocs
	t.allocBytes += h.allocBytes
	t.gcWeighted += h.gcFraction * h.cpu.Seconds()
	t.rates = append(t.rates, float64(ops)/h.wall.Seconds())
}

func addStats(a *pmem.Stats, b pmem.Stats) {
	a.Stores += b.Stores
	a.BytesStored += b.BytesStored
	a.Pwbs += b.Pwbs
	a.Pfences += b.Pfences
	a.Psyncs += b.Psyncs
	a.LinesPersisted += b.LinesPersisted
	a.BytesPersisted += b.BytesPersisted
}

func subStats(a, b pmem.Stats) pmem.Stats {
	return pmem.Stats{
		Stores: a.Stores - b.Stores, BytesStored: a.BytesStored - b.BytesStored,
		Pwbs: a.Pwbs - b.Pwbs, Pfences: a.Pfences - b.Pfences, Psyncs: a.Psyncs - b.Psyncs,
		LinesPersisted: a.LinesPersisted - b.LinesPersisted, BytesPersisted: a.BytesPersisted - b.BytesPersisted,
	}
}

// addTx and subTx cover the engine counters the metrics use.
func addTx(a *ptm.TxStats, b ptm.TxStats) {
	a.UpdateTxs += b.UpdateTxs
	a.ReadTxs += b.ReadTxs
	a.Batches += b.Batches
	a.BatchOps += b.BatchOps
	a.CombineNs += b.CombineNs
	a.ReplicatedBytes += b.ReplicatedBytes
	a.ReplicateExtents += b.ReplicateExtents
}

func subTx(a, b ptm.TxStats) ptm.TxStats {
	return ptm.TxStats{
		UpdateTxs: a.UpdateTxs - b.UpdateTxs, ReadTxs: a.ReadTxs - b.ReadTxs,
		Batches: a.Batches - b.Batches, BatchOps: a.BatchOps - b.BatchOps, CombineNs: a.CombineNs - b.CombineNs,
		ReplicatedBytes: a.ReplicatedBytes - b.ReplicatedBytes, ReplicateExtents: a.ReplicateExtents - b.ReplicateExtents,
	}
}

// restore rewrites both of dev's images with img, as if the machine
// rebooted with that media content. Recovery rounds reuse their devices
// this way: allocating and freeing hundreds of MiB of device memory per
// round left the runtime returning pages to the OS while the next round
// was timed.
func restore(dev *pmem.Device, img []byte) {
	dev.StoreBytes(0, img)
	dev.PersistAll()
}
