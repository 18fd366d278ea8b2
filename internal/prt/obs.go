package prt

import (
	"time"

	"privagic/internal/obs"
	"privagic/internal/queue"
)

// trace records one structured runtime event. With no tracer armed the
// Record call is a nil-receiver no-op (one branch).
func (rt *Runtime) trace(kind obs.EventKind, worker, chunk, tag int, epoch uint64, arg int64) {
	rt.Tracer.Record(kind, worker, chunk, tag, epoch, arg)
}

// traceOn is trace with an explicit shard: events recorded on one
// worker's goroutine about another worker (message sends) shard by the
// recording goroutine so the shard lock stays uncontended.
func (rt *Runtime) traceOn(shard int, kind obs.EventKind, worker, chunk, tag int, epoch uint64, arg int64) {
	rt.Tracer.RecordOn(shard, kind, worker, chunk, tag, epoch, arg)
}

// traceAt is trace with a clock value the caller already read — the spawn
// span boundaries reuse the chunk-latency histogram's reads, so a fully
// instrumented chunk costs two clock samples, not four.
func (rt *Runtime) traceAt(ts time.Time, kind obs.EventKind, worker, chunk, tag int, epoch uint64, arg int64) {
	rt.Tracer.RecordAt(ts.UnixNano(), kind, worker, chunk, tag, epoch, arg)
}

// flightDump renders the tracer's last-N events (empty with no tracer) —
// the flight record attached to aborts and timeouts.
func (rt *Runtime) flightDump() string {
	return rt.Tracer.Dump(flightRecordEvents)
}

// flightRecordEvents is how many trailing events an error's flight record
// carries: enough to cover the failing protocol phase, small enough to
// read in a terminal.
const flightRecordEvents = 64

// RegisterMetrics publishes the runtime's counters into reg (see
// OBSERVABILITY.md for the catalogue) and arms the latency histograms.
// Every prt metric is a gauge closure over a counter the runtime already
// maintains, so registration adds no hot-path work; only the three
// histograms introduce new instrumentation, each guarded by a nil check.
// Call it after the runtime is configured; workers created later are
// covered (the queue gauges aggregate over live threads at read time).
func (rt *Runtime) RegisterMetrics(reg *obs.Registry) {
	if rt == nil || reg == nil {
		return
	}
	reg.Gauge("prt.rejected_spawns", rt.stats.rejectedSpawns.Load)
	reg.Gauge("prt.rejected_conts", rt.stats.rejectedConts.Load)
	reg.Gauge("prt.hostile_spawns", rt.stats.hostileSpawns.Load)
	reg.Gauge("prt.hostile_conts", rt.stats.hostileConts.Load)
	reg.Gauge("prt.hostile_other", rt.stats.hostileOther.Load)
	reg.Gauge("prt.dropped_stale", rt.stats.droppedStale.Load)
	reg.Gauge("prt.dropped_duplicates", rt.stats.droppedDuplicates.Load)
	reg.Gauge("prt.aborts", rt.stats.aborts.Load)
	reg.Gauge("prt.timeouts", rt.stats.timeouts.Load)
	reg.Gauge("prt.drained", rt.stats.drained.Load)
	reg.Gauge("prt.payload_tampered", rt.stats.payloadTampered.Load)

	reg.Gauge("prt.journal.spawns", rt.jr.journaled.Load)
	reg.Gauge("prt.journal.unlogged", rt.jr.unlogged.Load)
	reg.Gauge("prt.journal.commits", rt.jr.commits.Load)
	reg.Gauge("prt.journal.replays", rt.jr.replays.Load)
	reg.Gauge("prt.journal.giveups", rt.jr.giveups.Load)

	reg.Gauge("prt.queue.depth", rt.sumQueues((*queue.Queue[Message]).Len))
	reg.Gauge("prt.queue.enqueues", rt.sumQueues(func(q *queue.Queue[Message]) int64 { e, _ := q.Stats(); return e }))
	reg.Gauge("prt.queue.dequeues", rt.sumQueues(func(q *queue.Queue[Message]) int64 { _, d := q.Stats(); return d }))
	reg.Gauge("prt.queue.parks", rt.sumQueues((*queue.Queue[Message]).Parks))
	reg.Gauge("prt.queue.park_us", rt.sumQueues(func(q *queue.Queue[Message]) int64 { return q.ParkTime().Microseconds() }))

	rt.hChunkUS = reg.Histogram("prt.chunk_exec_us")
	rt.hWaitUS = reg.Histogram("prt.wait_block_us")
	rt.hHopUS = reg.Histogram("prt.queue.hop_us")

	reg.Gauge("obs.trace_events", func() int64 { return rt.Tracer.Recorded() })
	reg.Gauge("obs.trace_dropped", func() int64 { return rt.Tracer.Dropped() })
}

// sumQueues returns a gauge that folds one per-queue statistic across
// every live worker queue of every thread. Snapshot-time only; never on
// the hot path.
func (rt *Runtime) sumQueues(stat func(*queue.Queue[Message]) int64) func() int64 {
	return func() int64 {
		rt.mu.Lock()
		threads := append([]*Thread(nil), rt.threads...)
		rt.mu.Unlock()
		var total int64
		for _, t := range threads {
			for _, w := range t.Workers {
				total += stat(w.q)
			}
		}
		return total
	}
}
