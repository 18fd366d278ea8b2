package e2e

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"privagic"
	"privagic/internal/sources"
	"privagic/internal/ycsb"
)

// waitTimeout bounds every runtime wait of a partitioned Call: a wedged
// request becomes a counted ErrWaitTimeout instead of a hang.
const waitTimeout = 100 * time.Millisecond

// loadBatch is how many keys one kv_load call inserts. On the one-color
// treemap the whole loop runs inside the enclave without a message, and
// the wait timeout is an inactivity window, so a call must stay well
// under it (a single 10,000-key call timed out about one load in five).
const loadBatch = 250

// colored is a partitioned workload: the program, how every instance of
// it is armed, and the driver that loads and exercises it.
type colored struct {
	file, src string
	opts      privagic.Options
	arm       func(*privagic.Instance)
	newDriver func(seed int64, scale float64) driver
}

// driver holds a workload's op stream and reference model. The stream
// continues across instance rebuilds; load resets the model.
type driver interface {
	// load populates a fresh instance.
	load(inst *privagic.Instance) outcome
	// request runs the next request of the stream against inst.
	request(inst *privagic.Instance) outcome
	// check reports a run-level model violation ("" when none).
	check() string
}

// memcachedHardened is the Fig 8 program in the paper's hardened mode,
// with every runtime defense armed.
func memcachedHardened(seed int64) *colored {
	return &colored{
		file: "memcached_core.c",
		src:  memcachedSource(mcSeeds(seed)),
		opts: privagic.Options{
			Mode: privagic.Hardened, Entries: mcBatchEntries(), Engine: privagic.EngineCompiled,
			OptimizeCrossings: true, Audit: privagic.AuditStrict,
		},
		arm: func(inst *privagic.Instance) {
			inst.EnableSpawnValidation()
			inst.EnableBoundaryDefense(privagic.FullBoundaryDefense())
			inst.EnableSupervision(privagic.SupervisionOptions{WaitTimeout: waitTimeout})
			inst.EnableRecovery(privagic.RecoveryOptions{MaxAttempts: 3})
		},
		newDriver: func(seed int64, _ float64) driver {
			return &mcDriver{entries: mcBatchEntries(), model: mcModel{seeds: mcSeeds(seed)}}
		},
	}
}

// kvMap is a data-structure program under a Zipfian YCSB mix in relaxed
// mode. withRecovery arms the recovery layer (see hashmap2Relaxed).
func kvMap(file, program string, records int, mix ycsb.Mix, withRecovery bool) *colored {
	return &colored{
		file: file,
		src:  kvSource(program),
		opts: privagic.Options{
			Mode: privagic.Relaxed, Entries: kvEntryNames, Engine: privagic.EngineCompiled,
			OptimizeCrossings: true, Audit: privagic.AuditStrict,
		},
		arm: func(inst *privagic.Instance) {
			inst.EnableSupervision(privagic.SupervisionOptions{WaitTimeout: waitTimeout})
			if withRecovery {
				inst.EnableRecovery(privagic.RecoveryOptions{MaxAttempts: 3})
			}
		},
		newDriver: func(seed int64, scale float64) driver {
			n := scaled(records, scale)
			gen, err := ycsb.New(ycsb.Config{
				Records: n, Mix: mix, Distribution: ycsb.Zipfian, Seed: derive(seed, 2),
			})
			if err != nil {
				panic(err) // the mixes are ycsb's own constants
			}
			return &kvDriver{gen: gen, keys: kvKeys(n), present: make([]bool, n)}
		},
	}
}

// hashmap2Relaxed is the two-color Fig 10 hashmap. It runs with the
// recovery layer armed: without it an enclave worker drops a cont that
// reaches it before the spawn it belongs to (prt Worker.loop), and on this
// program's insert path that wedges about one fresh instance in five
// within its first few hundred inserts. Recovery buffers such conts.
func hashmap2Relaxed() *colored {
	return kvMap("hashmap2.c", sources.HashmapColored2, 1000, ycsb.WorkloadA, true)
}

// treemapRelaxed is the one-color Fig 9 tree (a cont only ever goes back
// to the caller, so it needs no recovery layer).
func treemapRelaxed() *colored {
	return kvMap("treemap.c", sources.TreemapColored, 10000, ycsb.WorkloadB, false)
}

// compile builds the program with the workload's options, or with engine
// in their place when engine is set.
func (c *colored) compile(engine privagic.Engine) (*privagic.Program, error) {
	opts := c.opts
	if engine != "" {
		opts.Engine = engine
	}
	return privagic.Compile(c.file, c.src, opts)
}

// session is one partitioned system under test and its only client. A
// failed request is counted, the wedged instance is closed without
// waiting for it, and a fresh instance is built and reloaded; the stream
// carries on.
type session struct {
	c        *colored
	prog     *privagic.Program
	drv      driver
	observe  bool
	log      *failureLog
	inst     *privagic.Instance
	loadTime time.Duration
}

// open instantiates the program, arms it and loads it.
func (s *session) open() error {
	for attempt := 1; ; attempt++ {
		s.inst = s.prog.Instantiate(nil)
		s.c.arm(s.inst)
		if s.observe {
			s.inst.EnableObservability(privagic.ObservabilityOptions{Metrics: true, Trace: true})
		}
		t0 := time.Now()
		o := s.drv.load(s.inst)
		s.loadTime = time.Since(t0)
		if o.err == nil {
			s.log.record(o)
			return nil
		}
		o.dump = s.inst.TraceDump(64)
		s.log.record(o)
		closeDetached(s.inst)
		if attempt == 3 {
			return fmt.Errorf("e2e: load failed %d times: %w", attempt, o.err)
		}
	}
}

// next runs one request; it is the session's client.
func (s *session) next() (outcome, error) {
	o := s.drv.request(s.inst)
	if o.err == nil {
		return o, nil
	}
	if errors.Is(o.err, privagic.ErrDivergence) {
		o.wrong = o.err.Error()
	}
	o.dump = s.inst.TraceDump(64)
	closeDetached(s.inst)
	return o, s.open()
}

func (s *session) close() { s.inst.Close() }

// closeDetached stops a possibly wedged instance without blocking the
// benchmark on it.
func closeDetached(inst *privagic.Instance) { go inst.Close() }

// mcDriver round-robins over the batch entries.
type mcDriver struct {
	entries []string
	model   mcModel
	n       int
	hits    int64
}

func (d *mcDriver) load(*privagic.Instance) outcome {
	d.model.stored = [mcKeys]bool{}
	return outcome{}
}

func (d *mcDriver) request(inst *privagic.Instance) outcome {
	b := d.n % mcBatches
	d.n++
	o := outcome{ops: mcBatchOps, kind: opMixed}
	entry := d.entries[b]
	got, err := inst.Call(entry)
	want := d.model.batch(b)
	if o.err = err; err != nil {
		return o
	}
	d.hits += got
	if got != want {
		o.wrong = fmt.Sprintf("%s() = %d hits, model predicts %d", entry, got, want)
	}
	return o
}

// check rejects a run whose batches never hit: an LCG that sends sets
// and gets to disjoint keys passes the equality check with zero hits.
func (d *mcDriver) check() string {
	if d.n > 0 && d.hits == 0 {
		return "memcached batches returned zero hits"
	}
	return ""
}

// kvDriver drives kv_op with a YCSB stream against a set model.
type kvDriver struct {
	gen     *ycsb.Generator
	keys    []uint64
	present []bool
	reads   int64
	hits    int64
}

func (d *kvDriver) load(inst *privagic.Instance) outcome {
	clear(d.present)
	addr := inst.AllocUnsafe(8 * loadBatch)
	buf := make([]byte, 8*loadBatch)
	var o outcome
	for lo := 0; lo < len(d.keys); lo += loadBatch {
		batch := d.keys[lo:min(lo+loadBatch, len(d.keys))]
		for i, k := range batch {
			binary.LittleEndian.PutUint64(buf[8*i:], k)
		}
		inst.WriteUnsafe(addr, buf[:8*len(batch)])
		o.ops += int64(len(batch))
		got, err := inst.Call("kv_load", int64(addr), int64(len(batch)))
		if o.err = err; err != nil {
			return o
		}
		if got != int64(len(batch)) {
			o.wrong = fmt.Sprintf("kv_load stored %d keys, want %d", got, len(batch))
		}
		for _, k := range batch {
			d.present[k] = true
		}
	}
	return o
}

func (d *kvDriver) request(inst *privagic.Instance) outcome {
	op := d.gen.Next()
	o := outcome{ops: 1, kind: opWrite}
	kind := int64(2)
	if op.Kind == ycsb.OpRead {
		o.kind, kind = opRead, 1
	}
	got, err := inst.Call("kv_op", kind, int64(op.Key))
	if o.err = err; err != nil {
		return o
	}
	want := int64(1)
	if o.kind == opRead {
		d.reads++
		d.hits += got
		if !d.present[op.Key] {
			want = 0
		}
	}
	d.present[op.Key] = d.present[op.Key] || o.kind == opWrite
	if got != want {
		o.wrong = fmt.Sprintf("kv_op(%d, %d) = %d, model predicts %d", kind, op.Key, got, want)
	}
	return o
}

func (d *kvDriver) check() string {
	if d.reads > 0 && d.hits == 0 {
		return "kv_op reads never hit"
	}
	return ""
}
