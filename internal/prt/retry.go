// Recovery (this file and journal.go) is the second half of the
// fault story supervision started: supervision turns a crashed or wedged
// enclave into a typed error; recovery turns the typed error back into a
// completed request. A poisoned completion (the chunk aborted) is not
// surfaced to the joiner — the spawn is replayed from its journaled
// arguments, with exponential backoff and jitter, until it commits or the
// attempt budget is exhausted. Only then does the original typed error
// escape. SecV and EnclaveDom both observe that partitioned-enclave
// systems amplify failure domains (every cross-domain call is a new place
// to wedge); bounding the amplification inside the runtime is what lets
// every caller stay oblivious.
//
// The backoff schedule itself lives in internal/retry: the cluster router
// re-sends failed shard requests under the same policy, so the doubling,
// cap and jitter semantics are defined (and tested) exactly once.
//
// (Not the package comment — that is runtime.go's.)

package prt

import "privagic/internal/retry"

// RecoveryPolicy bounds the runtime's replay behavior. The zero
// value disables recovery (PR 1's surface-the-error behavior). It is the
// shared retry.Policy: MaxAttempts is the per-spawn replay budget,
// Backoff/MaxBackoff/Jitter shape the delay before each replay.
type RecoveryPolicy = retry.Policy
