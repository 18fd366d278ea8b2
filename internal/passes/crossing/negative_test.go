package crossing_test

// The negative corpus: programs constructed so a specific optimizer
// rewrite is illegal. Each case asserts defense in depth — the optimizer's
// own legality analysis rejects the rewrite with the expected reason, AND
// the audit validator independently catches the rewrite when a test hook
// forces it onto the plan anyway (the auditor re-derives the rule from
// the partition invariants; it never trusts the optimizer's verdict).

import (
	"fmt"
	"strings"
	"testing"

	"privagic"
	"privagic/internal/audit"
	"privagic/internal/ir"
	"privagic/internal/partition"
	"privagic/internal/passes/crossing"
	"privagic/internal/sources"
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

// sinkAcrossStore walks a revealed search loop whose blue copy counts
// its steps in blue memory. Sinking the per-node cont would run those
// stores after red's whole walk, so the consumer side must refuse it.
const sinkAcrossStore = `
ignore long reveal(long color(red) v);
struct node { long color(red) key; struct node* next; };
struct node* head;
long color(blue) steps;

long find(long k) {
    struct node* n = head;
    while (n != 0) {
        steps = steps + 1;
        if (reveal(n->key == k)) { return 1; }
        n = n->next;
    }
    return 0;
}
void push(long k) {
    struct node* n = malloc(sizeof(struct node));
    n->key = k;
    n->next = head;
    head = n;
}
entry long run() {
    for (long i = 0; i < 8; i++) { push(i * 3); }
    long hits = 0;
    for (long i = 0; i < 16; i++) { hits = hits + find(i); }
    return hits;
}
`

// sinkSummedValue sums the revealed compare into a local, so the value
// is needed on every iteration, not only by the loop's exit test.
const sinkSummedValue = `
ignore long reveal(long color(red) v);
ignore long reveal_val(long color(blue) v);
struct node { long color(red) key; long color(blue) val; struct node* next; };
struct node* head;

long find(long k) {
    struct node* n = head;
    long seen = 0;
    while (n != 0) {
        long hit = reveal(n->key == k);
        seen = seen + hit;
        if (hit) { return seen + reveal_val(n->val); }
        n = n->next;
    }
    return seen;
}
void push(long k) {
    struct node* n = malloc(sizeof(struct node));
    n->key = k;
    n->val = k + 1;
    n->next = head;
    head = n;
}
entry long run() {
    for (long i = 0; i < 8; i++) { push(i * 3); }
    long hits = 0;
    for (long i = 0; i < 16; i++) { hits = hits + find(i); }
    return hits;
}
`

// loopTag returns the one transport tag of the partitioned function
// whose key starts with fn.
func loopTag(t *testing.T, pp *partition.Program, fn string) int {
	t.Helper()
	for _, pf := range pp.Funcs {
		if !strings.HasPrefix(pf.Spec.Key, fn) {
			continue
		}
		for _, tr := range pp.Transports(pf) {
			return tr.Tag
		}
	}
	t.Fatalf("no transport in %s", fn)
	return 0
}

func TestNegativeSinkAcrossConsumerStore(t *testing.T) {
	// Layer 1: the optimizer refuses, naming the consumer's store.
	prog := compileNegative(t, "sinkstore", sinkAcrossStore, true)
	if rej := findRejection(prog.CrossingOpt, "sink", "consumer loop stores through @steps"); rej == nil {
		t.Fatalf("optimizer did not reject the sink across a consumer store; rejections: %+v", prog.CrossingOpt.Rejected)
	}
	if len(prog.CrossingOpt.Sunk) != 0 {
		t.Fatalf("optimizer sank %+v despite the consumer's store", prog.CrossingOpt.Sunk)
	}

	// Layer 2: force the same sink; the audit must catch it on its own.
	fresh := compileNegative(t, "sinkstore", sinkAcrossStore, false)
	pp := fresh.Partitioned
	if !crossing.ForceSink(pp, loopTag(t, pp, "find")) {
		t.Fatal("ForceSink did not sink the find loop's cont")
	}
	res := audit.Run(pp)
	if res.Err() == nil {
		t.Fatal("audit passed a forced sink across a consumer store; the validator must re-derive the rule")
	}
	if !strings.Contains(res.Err().Error(), "its loop stores through @steps") {
		t.Errorf("audit rejected the forced sink for an unexpected reason:\n%v", res.Err())
	}
}

func TestNegativeSinkSummedValue(t *testing.T) {
	prog := compileNegative(t, "sinksum", sinkSummedValue, true)
	if rej := findRejection(prog.CrossingOpt, "sink", "is used outside the loop's exit compare"); rej == nil {
		t.Fatalf("optimizer did not reject the sink of a summed value; rejections: %+v", prog.CrossingOpt.Rejected)
	}
	if len(prog.CrossingOpt.Sunk) != 0 {
		t.Fatalf("optimizer sank %+v although the value is summed", prog.CrossingOpt.Sunk)
	}
}

func TestNegativeSinkTwoWaitSites(t *testing.T) {
	// The partitioner emits one wait per transport, so the shape is made
	// by hand: map_get's blue copy receives the tag a second time in the
	// loop, and red sends it a second time.
	prog, err := privagic.Compile("hashmap2.c", sources.HashmapColored2, privagic.Options{
		Mode: privagic.Relaxed, Entries: []string{"run_ycsb"},
	})
	if err != nil {
		t.Fatal(err)
	}
	pp := prog.Partitioned
	tag := loopTag(t, pp, "map_get")
	dup := func(name, intr string) {
		for _, ch := range pp.ChunkByID {
			if ch.Name() != name {
				continue
			}
			for _, b := range ch.Fn.Blocks {
				for i, in := range b.Instrs {
					if c, ok := in.(*ir.Call); ok && c.Callee.(*ir.Function).FName == intr {
						b.Splice(i, c, ir.NewCallInstr(ch.Fn, c.Callee, c.Args...))
						return
					}
				}
			}
		}
		t.Fatalf("no %s in %s", intr, name)
	}
	dup("map_get(F).red", partition.IntrSend)
	dup("map_get(F).blue", partition.IntrWait)
	res := crossing.Optimize(pp)
	if rej := findRejection(res, "sink", fmt.Sprintf("consumer waits for tag %d at 2 sites", tag)); rej == nil {
		t.Fatalf("optimizer did not reject a sink with two wait sites; rejections: %+v", res.Rejected)
	}
	for _, s := range res.Sunk {
		if s.Tag == tag {
			t.Fatalf("optimizer sank tag %d despite its two wait sites", tag)
		}
	}
}
