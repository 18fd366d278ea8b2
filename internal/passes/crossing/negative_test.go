package crossing_test

// The negative corpus: programs constructed so a specific optimizer
// rewrite is illegal. Each case asserts defense in depth — the optimizer's
// own legality analysis rejects the rewrite with the expected reason, AND
// the audit validator independently catches the rewrite when a test hook
// forces it onto the plan anyway (the auditor re-derives the rule from
// the partition invariants; it never trusts the optimizer's verdict).

import (
	"strings"
	"testing"

	"privagic"
	"privagic/internal/audit"
	"privagic/internal/passes/crossing"
)

// fuseAcrossDeclassify spawns an unsafe chunk whose body performs a
// sanctioned declassify copy. Fusing it would execute the
// declassification site on the enclave's worker, so fusion must stay
// rejected.
const fuseAcrossDeclassify = `
ignore void declassify(char* dst, char* src, long n);

char secret[64];
char out[64];
long audit_count;

void publish(long i) {
    declassify(out, secret, 8);
    audit_count = audit_count + i;
}

long color(red) key;

void enc_step(long i) {
    key = key + i;
    publish(i);
}

entry long run() {
    long s = 0;
    for (long i = 0; i < 4; i++) {
        enc_step(i);
        s = s + 1;
    }
    return s + audit_count;
}
`

// fuseAcrossThreadCreate spawns an unsafe chunk that creates a thread,
// which the caller's unsafe code then joins. A thread's children are
// kept by the worker that created them, so fusing the create onto the
// enclave's worker would hide the child from the join.
const fuseAcrossThreadCreate = `
long out[2];
long color(red) key;

void leaf(long id) { out[id] = id; }

void spawnLeaf(long id) { thread_create(leaf, id); }

void encStep(long id) {
    key = key + id;
    spawnLeaf(id);
}

entry long run() {
    encStep(1);
    thread_join();
    return out[1];
}
`

// coalesceAcrossStore produces two cont transports with an intervening U
// def-use between the consumer's waits: the first value feeds U state
// (read of g1) before the second value arrives. Coalescing them would
// need both values at one receive point, so the rewrite must stay
// rejected. (A U *store* between the transports is barrier-protected,
// which already breaks the producer-side adjacency before the consumer
// check can fire — the U load is the shape that reaches, and must fail,
// the consumer-side legality check.)
const coalesceAcrossStore = `
ignore long reveal(long color(red) v);

long color(red) s1;
long color(red) s2;
long g1;
long sink;

void step(long i) {
    long a = reveal(s1 + i);
    long x = g1 + a;
    long b = reveal(s2 + i);
    sink = sink + x + b;
}

entry long run() {
    long s = 0;
    for (long i = 0; i < 4; i++) {
        step(i);
        s = s + 1;
    }
    return s;
}
`

// compileNegative compiles src in relaxed mode without the optimizer and
// returns the partitioned program for hand-forced rewrites.
func compileNegative(t *testing.T, name, src string, optimize bool) *privagic.Program {
	t.Helper()
	prog, err := privagic.Compile(name+".c", src, privagic.Options{
		Mode:              privagic.Relaxed,
		Entries:           []string{"run"},
		OptimizeCrossings: optimize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// findRejection returns the first optimizer rejection of the given kind
// whose reason contains want.
func findRejection(res *crossing.OptResult, kind, want string) *crossing.Rejection {
	for i, r := range res.Rejected {
		if r.Kind == kind && strings.Contains(r.Reason, want) {
			return &res.Rejected[i]
		}
	}
	return nil
}

func TestNegativeFusionAcrossDeclassify(t *testing.T) {
	checkFusionRejected(t, "fusedecl", fuseAcrossDeclassify, "publish", "declassify")
}

func TestNegativeFusionAcrossThreadCreate(t *testing.T) {
	checkFusionRejected(t, "fusethread", fuseAcrossThreadCreate, "spawnLeaf", "thread_create")
}

// checkFusionRejected asserts both layers for a program whose unsafe
// chunk of function fn must not be fused: the optimizer rejects the
// fusion naming reason, and the audit catches the same fusion forced
// onto a fresh plan.
func checkFusionRejected(t *testing.T, name, src, fn, reason string) {
	t.Helper()
	// Layer 1: the optimizer rejects the fusion, naming the blocker.
	prog := compileNegative(t, name, src, true)
	if rej := findRejection(prog.CrossingOpt, "fuse", reason); rej == nil {
		t.Fatalf("optimizer did not reject the fusion across a %s; rejections: %+v",
			reason, prog.CrossingOpt.Rejected)
	}
	if len(prog.CrossingOpt.Fused) != 0 {
		t.Fatalf("optimizer fused %+v despite the %s", prog.CrossingOpt.Fused, reason)
	}

	// Layer 2: force the same fusion onto a fresh plan; the audit
	// validator must catch the cross-color direct call on its own.
	fresh := compileNegative(t, name, src, false)
	pp := fresh.Partitioned
	target := ""
	for _, ch := range pp.ChunkByID {
		if ch.Color.IsUntrusted() && strings.HasPrefix(ch.Part.Spec.Key, fn) {
			target = ch.Name()
		}
	}
	if target == "" {
		t.Fatalf("no unsafe %s chunk in the partition", fn)
	}
	if !crossing.ForceFuse(pp, target) {
		t.Fatalf("ForceFuse did not rewrite any spawn of %s", target)
	}
	res := audit.Run(pp)
	if res.Err() == nil {
		t.Fatalf("audit passed a forced fusion across a %s; the validator must re-derive the rule", reason)
	}
	if !strings.Contains(res.Err().Error(), "direct calls stay within a color") {
		t.Errorf("audit rejected the forced fusion for an unexpected reason:\n%v", res.Err())
	}
}

func TestNegativeCoalesceAcrossStore(t *testing.T) {
	// Layer 1: the optimizer rejects the coalesce — the consumer's waits
	// are separated by a U store.
	prog := compileNegative(t, "coalstore", coalesceAcrossStore, true)
	if rej := findRejection(prog.CrossingOpt, "coalesce", "not pure scalar"); rej == nil {
		t.Fatalf("optimizer did not reject the coalesce across a U store; rejections: %+v",
			prog.CrossingOpt.Rejected)
	}
	if len(prog.CrossingOpt.Coalesced) != 0 {
		t.Fatalf("optimizer coalesced %+v despite the store between the waits", prog.CrossingOpt.Coalesced)
	}

	// Layer 2: force the producer side of the rewrite only; the audit's
	// message-plan cross-check must flag the orphaned waits.
	fresh := compileNegative(t, "coalstore", coalesceAcrossStore, false)
	pp := fresh.Partitioned
	var prodName string
	var tags []int
	for _, pf := range pp.Funcs {
		if !strings.HasPrefix(pf.Spec.Key, "step") {
			continue
		}
		for _, tr := range pp.Transports(pf) {
			tags = append(tags, tr.Tag)
		}
		for _, ch := range pf.Chunks {
			if !ch.Color.IsUntrusted() {
				prodName = ch.Name()
			}
		}
	}
	if prodName == "" || len(tags) < 2 {
		t.Fatalf("unexpected partition shape: producer %q, transport tags %v", prodName, tags)
	}
	if !crossing.ForceCoalesceProducer(pp, prodName, tags) {
		t.Fatalf("ForceCoalesceProducer did not rewrite %s", prodName)
	}
	res := audit.Run(pp)
	if res.Err() == nil {
		t.Fatal("audit passed a one-sided coalesce; the message-plan cross-check must flag the orphaned waits")
	}
}
