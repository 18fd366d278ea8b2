package prt

import (
	"errors"
	"fmt"
	"time"
)

// ErrStopped is returned by Wait/Join/JoinOne when the worker receives the
// shutdown message mid-protocol (Thread.Close during in-flight work). It
// replaces the former panic so tearing a thread down is always safe.
var ErrStopped = errors.New("prt: runtime stopped")

// ErrWaitTimeout is the sentinel matched (errors.Is) by every supervision
// timeout; the concrete error is a *TimeoutError carrying the blocked
// operation.
var ErrWaitTimeout = errors.New("prt: wait timed out")

// ErrEnclaveAbort is the sentinel matched (errors.Is) by *EnclaveAbort.
var ErrEnclaveAbort = errors.New("prt: enclave aborted")

// TimeoutError reports which wait point gave up: the simulated analogue of
// a lost message on the untrusted queue that no retransmit recovered. It
// carries the protocol state at expiry — which cont tags
// the thread's workers were still blocked on and how deep each worker's
// queue was at expiry — so a timeout names the stuck protocol state, not
// just the symptom.
type TimeoutError struct {
	Op      string // "wait", "join", "join-one"
	Worker  int    // color index of the blocked worker
	Tag     int    // cont tag (Op == "wait")
	Pending int    // completions still missing (Op == "join")
	// Elapsed is the windows the wait served, the last one quiet: at
	// least that long, not counting the spins before each window opened.
	Elapsed time.Duration

	// PendingTags is the sorted set of cont tags still unresolved across
	// the thread at expiry: the blocked worker's own tag plus every tag a
	// sibling worker had published as its blocked wait point.
	PendingTags []int
	// QueueDepths is the per-worker queue depth (index = color index) at
	// expiry: a non-empty queue under a timeout means the worker died or
	// wedged with work still pending; all-empty means the message is
	// genuinely lost.
	QueueDepths []int64

	// flight is the tracer's last-N-events dump captured at expiry
	// (empty with no tracer armed); see FlightRecord.
	flight string
}

func (e *TimeoutError) Error() string {
	var head string
	switch e.Op {
	case "wait":
		head = fmt.Sprintf("prt: w%d wait(tag=%d) timed out after %v", e.Worker, e.Tag, e.Elapsed)
	case "join":
		head = fmt.Sprintf("prt: w%d join timed out after %v with %d completion(s) missing", e.Worker, e.Elapsed, e.Pending)
	default:
		head = fmt.Sprintf("prt: w%d %s timed out after %v", e.Worker, e.Op, e.Elapsed)
	}
	if len(e.PendingTags) > 0 {
		head += fmt.Sprintf(" (pending tags %v)", e.PendingTags)
	}
	if len(e.QueueDepths) > 0 {
		head += fmt.Sprintf(" (queue depths %v)", e.QueueDepths)
	}
	return head
}

// Is lets errors.Is(err, ErrWaitTimeout) match any supervision timeout.
func (e *TimeoutError) Is(target error) bool { return target == ErrWaitTimeout }

// FlightRecord returns the tracer's flight-recorder dump captured when
// the timeout fired — the last events the runtime recorded before going
// quiet (empty when no tracer was armed). Like EnclaveAbort stacks, it is
// deliberately not part of Error(): flight records are for the operator
// inspecting a failure, not for the one-line log.
func (e *TimeoutError) FlightRecord() string { return e.flight }

// EnclaveAbort is the poisoned completion a crashing chunk leaves behind:
// the simulated analogue of an AEX that kills the enclave thread. Instead
// of deadlocking the joiner, runSpawn converts the panic into a MsgDone
// carrying this error.
type EnclaveAbort struct {
	Worker  int // color index of the worker the chunk crashed on
	ChunkID int
	Cause   error

	// stack is the goroutine stack captured by debug.Stack() at recover
	// time — the only record of where inside the chunk the crash
	// happened, since the panic unwinds before the abort is constructed.
	stack []byte

	// flight is the tracer's last-N-events dump at recover time, ending
	// with this abort's own event; see FlightRecord.
	flight string
}

func (e *EnclaveAbort) Error() string {
	return fmt.Sprintf("prt: chunk %d aborted on enclave worker w%d: %v", e.ChunkID, e.Worker, e.Cause)
}

// Unwrap exposes the crash cause.
func (e *EnclaveAbort) Unwrap() error { return e.Cause }

// Is lets errors.Is(err, ErrEnclaveAbort) match any abort.
func (e *EnclaveAbort) Is(target error) bool { return target == ErrEnclaveAbort }

// Stack returns the goroutine stack captured when the chunk's panic was
// recovered (nil for aborts constructed without one). It is not part of
// Error() — stacks are for the operator inspecting a failure, not for the
// one-line log.
func (e *EnclaveAbort) Stack() []byte { return e.stack }

// FlightRecord returns the tracer's flight-recorder dump captured when
// the chunk's panic was recovered; its last line is this abort's own
// trace event. Empty when no tracer was armed.
func (e *EnclaveAbort) FlightRecord() string { return e.flight }

// ErrIagoViolation is the sentinel matched (errors.Is) by every runtime
// boundary-defense detection: a pointer from unsafe memory that failed
// sanitization, or a message whose payload words were mutated in place
// between enqueue and dequeue. The §4 attacker owns all of U memory; this
// error is the hardened runtime refusing to act on what it found there.
var ErrIagoViolation = errors.New("prt: iago violation")

// IagoViolation is the concrete detection record. Kind is "pointer" for a
// sanitization failure (the offending address, its region and that
// region's mapped extent are filled in) or "payload" for an integrity-tag
// mismatch at the admit gate.
type IagoViolation struct {
	Kind   string // "pointer" | "payload"
	Worker int    // color index of the detecting worker (-1 if unknown)
	Addr   uint64 // offending simulated address (Kind == "pointer")
	Region int    // region the address names
	Extent uint64 // mapped extent of that region at detection time
	Len    int    // access width in bytes
}

func (e *IagoViolation) Error() string {
	switch e.Kind {
	case "pointer":
		return fmt.Sprintf("prt: iago violation: w%d rejected %d-byte access at %#x (region %d extent %#x)",
			e.Worker, e.Len, e.Addr, e.Region, e.Extent)
	case "payload":
		return fmt.Sprintf("prt: iago violation: w%d rejected message with mutated payload", e.Worker)
	default:
		return fmt.Sprintf("prt: iago violation (%s) on w%d", e.Kind, e.Worker)
	}
}

// Is lets errors.Is(err, ErrIagoViolation) match any boundary detection.
func (e *IagoViolation) Is(target error) bool { return target == ErrIagoViolation }
