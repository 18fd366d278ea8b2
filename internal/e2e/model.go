package e2e

import (
	"bytes"
	"math/rand"
	"strconv"
)

// The reference models are plain Go, written from the programs' source
// semantics and sharing no code with the compiler or the runtime: a
// result that disagrees with its model is a wrong answer.

// derive maps the run seed and a salt to an independent 64-bit seed
// (one splitmix64 round).
func derive(seed int64, salt uint64) uint64 {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mcModel predicts the memcached batches: it replays each batch's LCG
// and keeps the set of keys stored so far.
type mcModel struct {
	seeds  [mcBatches]int64
	stored [mcKeys]bool
}

// mcSeeds derives the batch entries' LCG literals from the run seed.
func mcSeeds(seed int64) [mcBatches]int64 {
	var s [mcBatches]int64
	for i := range s {
		s[i] = int64(derive(seed, uint64(100+i)) & 0x7fffffff)
	}
	return s
}

// batch predicts the hit count ycsb_batch_b returns and applies its sets.
func (m *mcModel) batch(b int) int64 {
	var hits int64
	s := m.seeds[b]
	for i := 0; i < mcBatchOps; i++ {
		s = (s*1103515245 + 12345) & 2147483647
		key := (s >> 12) & (mcKeys - 1)
		if (s>>24)&1 == 0 {
			m.stored[key] = true
		} else if m.stored[key] {
			hits++
		}
	}
	return hits
}

// kvKeys is the load of a data-structure workload: a pseudo-random
// permutation of [0, records) (in-order keys would degenerate the
// unbalanced tree) with 1/8 left out, so reads of the left-out keys miss
// until an update inserts them and the model's hit/miss prediction is
// checked in both directions. The layout is part of the workload, not of
// the seed: where the Zipfian-hot keys land in their hash chains or tree
// paths sets the work per op, and a seeded layout moves it by ±10%
// between seeds on hashmap2.
func kvKeys(records int) []uint64 {
	perm := rand.New(rand.NewSource(1)).Perm(records)
	keys := make([]uint64, records-records/8)
	for i := range keys {
		keys[i] = uint64(perm[i])
	}
	return keys
}

// clusterValueSize is the YCSB record size of the cluster workload
// (1 KiB, as in paper §9.2).
const clusterValueSize = 1024

// clusterKey names a YCSB key on the wire.
func clusterKey(k uint64) string { return "k" + strconv.FormatUint(k, 10) }

// clusterValue is the value stored under key: the key, '=', then
// padding. Every Get must return a value that echoes its own key.
func clusterValue(key string) []byte {
	v := bytes.Repeat([]byte{'v'}, clusterValueSize)
	copy(v, key+"=")
	return v
}

// validClusterValue reports whether v is a value written for key.
func validClusterValue(key string, v []byte) bool {
	return len(v) == clusterValueSize && len(v) > len(key) &&
		string(v[:len(key)]) == key && v[len(key)] == '='
}
