package e2e

import (
	"fmt"
	"io"
	"time"

	"privagic/internal/cluster"
	"privagic/internal/memcached"
	"privagic/internal/obs"
	"privagic/internal/ycsb"
)

// The cluster workload: 3 shards behind the router at R=2, 10,000
// preloaded 1 KiB records, YCSB-A Zipfian from 2 closed-loop clients.
const (
	clusterShards  = 3
	clusterClients = 2
	clusterRecords = 10000
)

// clusterSetup starts the shards and the router and preloads every
// record. A traced system registers the router's metrics and events.
func clusterSetup(r *run, traced bool) (*system, error) {
	// A connection pins a shard worker: two pooled data connections, the
	// probe and the canary, with room to redial.
	cl, err := cluster.New(cluster.Config{Shards: clusterShards, Workers: 6})
	if err != nil {
		return nil, err
	}
	rt, err := cluster.NewRouter(cl, cluster.RouterConfig{PoolConns: 2, Replication: 2})
	if err != nil {
		cl.Close()
		return nil, err
	}
	sys := &system{close: func() { rt.Close(); cl.Close() }}
	if traced {
		reg, tr := obs.NewRegistry(), obs.NewTracer(0)
		rt.Instrument(reg, tr)
		cl.Instrument(tr)
		sys.counters = func() map[string]int64 {
			snap := reg.Snapshot()
			snap["memcached.shed_ops"] = cl.ShedOps()
			return snap
		}
		sys.writeTrace = func(w io.Writer) error { return tr.WriteChromeTrace(w, false) }
	}
	records := scaled(clusterRecords, r.opts.Scale)
	t0 := time.Now()
	for k := 0; k < records; k++ {
		key := clusterKey(uint64(k))
		o := outcome{ops: 1, err: rt.Set(key, clusterValue(key))}
		r.log.record(o)
		if o.err != nil {
			sys.close()
			return nil, fmt.Errorf("e2e: cluster preload: %w", o.err)
		}
	}
	sys.loadTime = time.Since(t0)
	gens, err := clusterStreams(r.opts.Seed, records)
	if err != nil {
		sys.close()
		return nil, err
	}
	for _, g := range gens {
		sys.clients = append(sys.clients, &routerClient{rt: rt, gen: g})
	}
	sys.layers = func(r *run, sp *spans) error { return clusterLayers(r, rt, records, sp) }
	return sys, nil
}

// clusterStreams is the YCSB-A Zipfian stream split across the clients.
func clusterStreams(seed int64, records int) ([]*ycsb.Generator, error) {
	base, err := ycsb.New(ycsb.Config{
		Records: records, Mix: ycsb.WorkloadA, Distribution: ycsb.Zipfian,
		RecordSize: clusterValueSize, Seed: derive(seed, 3),
	})
	if err != nil {
		return nil, err
	}
	return base.Split(clusterClients), nil
}

// routerClient sends YCSB ops through the router. No key is ever
// deleted, so every Get must hit and echo its key.
type routerClient struct {
	rt  *cluster.Router
	gen *ycsb.Generator
}

func (c *routerClient) next() (outcome, error) {
	return kvOp(c.gen.Next(), c.rt.Get, c.rt.Set), nil
}

// kvOp runs one YCSB op against a memcached-shaped layer (the router, a
// wire client or the store) and checks the answer.
func kvOp(op ycsb.Op, get func(string) ([]byte, bool, error), set func(string, []byte) error) outcome {
	key := clusterKey(op.Key)
	if op.Kind != ycsb.OpRead {
		return outcome{ops: 1, kind: opWrite, err: set(key, clusterValue(key))}
	}
	o := outcome{ops: 1, kind: opRead}
	v, ok, err := get(key)
	switch {
	case err != nil:
		o.err = err
	case !ok:
		o.wrong = fmt.Sprintf("get %s missed a preloaded key", key)
	case !validClusterValue(key, v):
		o.wrong = fmt.Sprintf("get %s returned a value that does not echo its key", key)
	}
	return o
}

// clusterLayers replays one client's op stream against each layer's
// public entry point in turn: the store in-process, one server over the
// wire, then the router (wire + routing + R=2 replication). A layer's
// self time is its median minus the median of the layer below it.
func clusterLayers(r *run, rt *cluster.Router, records int, sp *spans) error {
	gens, err := clusterStreams(r.opts.Seed, records)
	if err != nil {
		return err
	}
	ops := make([]ycsb.Op, r.requests(1.0/16, 1))
	for i := range ops {
		ops[i] = gens[0].Next()
	}
	preloaded := func() *memcached.Store {
		st := memcached.NewStore(1<<12, 0)
		for k := 0; k < records; k++ {
			key := clusterKey(uint64(k))
			st.Set(key, clusterValue(key), 0)
		}
		return st
	}
	st := preloaded()
	storeGet := func(k string) ([]byte, bool, error) { v, _, ok := st.Get(k); return v, ok, nil }
	storeSet := func(k string, v []byte) error { st.Set(k, v, 0); return nil }
	store := replay(r, "replay.store", ops, storeGet, storeSet, sp)

	srv, err := memcached.NewServer("127.0.0.1:0", preloaded(), 2)
	if err != nil {
		return err
	}
	defer srv.Close()
	mc, err := memcached.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer mc.Close()
	wireSet := func(k string, v []byte) error { return mc.Set(k, v, 0) }
	wire := replay(r, "replay.wire", ops, mc.Get, wireSet, sp)
	router := replay(r, "replay.router", ops, rt.Get, rt.Set, sp)

	for _, l := range []struct {
		name string
		lat  []time.Duration
	}{{"memcached.store", store}, {"memcached.wire", wire}, {"cluster.router", router}} {
		r.set(l.name+"_p50_us", percentileUS(l.lat, 0.5))
		r.set(l.name+"_p99_us", percentileUS(l.lat, 0.99))
	}
	r.set("memcached.wire_self_us", r.metrics["memcached.wire_p50_us"]-r.metrics["memcached.store_p50_us"])
	r.set("cluster.router_self_us", r.metrics["cluster.router_p50_us"]-r.metrics["memcached.wire_p50_us"])
	return nil
}

// replay runs ops one at a time against a layer, checking every answer,
// and returns the per-op latencies.
func replay(r *run, name string, ops []ycsb.Op, get func(string) ([]byte, bool, error), set func(string, []byte) error, sp *spans) []time.Duration {
	parent := sp.begin(name, 0, 0)
	defer sp.end(parent)
	lat := make([]time.Duration, len(ops))
	for i, op := range ops {
		id := sp.begin("op", parent, 0)
		t0 := time.Now()
		o := kvOp(op, get, set)
		lat[i] = time.Since(t0)
		sp.end(id)
		r.log.record(o)
	}
	return lat
}
