package e2e

import (
	"fmt"
	"strings"

	"privagic/internal/sources"
)

// The benchmark compiles the evaluation's colored programs unchanged and
// appends a few driver entries of its own: the paper's programs carry a
// fixed 600-op YCSB loop (run_ycsb), while the benchmark needs inputs it
// derives from its seed.

// mcBatches is how many distinct YCSB batch entries the memcached program
// gets; the caller round-robins over them.
const mcBatches = 8

// mcBatchOps, mcKeys: every batch runs 600 ops, 50/50 set/get, over a
// 4,096-key space (paper §9.2 drives the core with an in-program YCSB
// loop because hardened mode only accepts Free keys).
const (
	mcBatchOps = 600
	mcKeys     = 4096
)

// memcachedSource is MemcachedCoreColored plus ycsb_batch_0..7, each
// seeded with its own LCG literal. The op kind and the key come from
// disjoint high bits of the 31-bit LCG state: its low bits have short
// periods, so drawing both from them (seed % 4096 and seed & 15, as
// run_ycsb does) would send every set and every get to disjoint keys.
func memcachedSource(seeds [mcBatches]int64) string {
	var b strings.Builder
	b.WriteString(sources.MemcachedCoreColored)
	for i, s := range seeds {
		fmt.Fprintf(&b, `
entry long ycsb_batch_%d() {
	long seed = %d;
	long hits = 0;
	for (long i = 0; i < %d; i++) {
		seed = (seed * 1103515245 + 12345) & 2147483647;
		long key = (seed >> 12) & %d;
		if (((seed >> 24) & 1) == 0) { mc_set(key, inbuf); }
		else { hits = hits + mc_get(key); }
	}
	return hits;
}
`, i, s, mcBatchOps, mcKeys-1)
	}
	return b.String()
}

// mcBatchEntries names the batch entries.
func mcBatchEntries() []string {
	out := make([]string, mcBatches)
	for i := range out {
		out[i] = fmt.Sprintf("ycsb_batch_%d", i)
	}
	return out
}

// kvEntries are the two driver entries appended to the data-structure
// programs: kv_op runs one YCSB op (kind 1 = read, returning 1 on a hit;
// anything else = update, an upsert returning 1), kv_load inserts n keys
// read from an unsafe-memory array. Both programs name their map
// operations map_put/map_get, so one text serves both.
const kvEntries = `
entry long kv_op(long kind, long key) {
	char color(blue) buf[64];
	if (kind == 1) { return map_get(key); }
	map_put(key, buf);
	return 1;
}
entry long kv_load(long* keys, long n) {
	char color(blue) buf[64];
	for (long i = 0; i < n; i++) { map_put(keys[i], buf); }
	return n;
}
`

// kvSource appends the driver entries to a data-structure program.
func kvSource(program string) string { return program + kvEntries }

// kvEntryNames are the entry points of a kvSource program.
var kvEntryNames = []string{"kv_op", "kv_load"}
