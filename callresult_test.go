package privagic

import (
	"testing"

	"privagic/internal/audit"
)

// findPosSrc is the two-color hashmap with its bucket walk moved into a
// helper that returns a red value: find_pos sums (n->key == k) * i over
// the bucket's chain, and map_get/map_put reveal the position before
// walking to it. run_ycsb is HashmapColored2's, so it returns 264.
const findPosSrc = `
ignore void declassify(char* dst, char color(blue)* src, long n);
ignore long reveal(long color(red) v);
struct node { long color(red) key; char color(blue) value[64]; struct node* next; };
struct node* buckets[64];
char out[64];

long bucket_of(long k) {
	return ((k * 2654435761) >> 4) & 63;
}
long color(red) find_pos(long h, long k) {
	long color(red) pos = 0;
	long i = 1;
	struct node* n = buckets[h];
	while (n != 0) {
		pos = pos + (n->key == k) * i;
		i = i + 1;
		n = n->next;
	}
	return pos;
}
void map_put(long k, char color(blue)* v) {
	long h = bucket_of(k);
	long p = reveal(find_pos(h, k));
	struct node* n = buckets[h];
	long i = 1;
	while (n != 0) {
		if (i == p) { memcpy(n->value, v, 64); return; }
		i = i + 1;
		n = n->next;
	}
	n = malloc(sizeof(struct node));
	n->key = k;
	memcpy(n->value, v, 64);
	n->next = buckets[h];
	buckets[h] = n;
}
long map_get(long k) {
	long h = bucket_of(k);
	long p = reveal(find_pos(h, k));
	struct node* n = buckets[h];
	long i = 1;
	while (n != 0) {
		if (i == p) { declassify(out, n->value, 64); return 1; }
		i = i + 1;
		n = n->next;
	}
	return 0;
}
entry long run_ycsb() {
	long seed = 99;
	long hits = 0;
	char color(blue) buf[64];
	for (long i = 0; i < 600; i++) {
		seed = (seed * 1103515245 + 12345) & 2147483647;
		long key = seed % 40;
		if ((seed & 15) < 8) { map_put(key, buf); }
		else { hits = hits + map_get(key); }
	}
	return hits;
}
`

// TestColoredCallResultNotShipped: a call whose result is red is not a
// transport. Its callers' other chunks must not wait for it, so no cont
// carries it through the untrusted queues, even with the auditor off.
func TestColoredCallResultNotShipped(t *testing.T) {
	prog, err := Compile("find_pos.c", findPosSrc, Options{Mode: Relaxed})
	if err != nil {
		t.Fatal(err)
	}
	// The auditor re-proves every cont payload free of enclave colors.
	for _, e := range audit.Run(prog.Partitioned).Errors {
		if e.Kind == audit.ErrConfidentiality {
			t.Errorf("audit: %v", e)
		}
	}
	if _, err := Compile("find_pos.c", findPosSrc, Options{Mode: Relaxed, Audit: AuditStrict}); err != nil {
		t.Fatalf("strict audit: %v", err)
	}
	inst := prog.Instantiate(nil)
	defer inst.Close()
	if got, err := inst.Call("run_ycsb"); err != nil || got != 264 {
		t.Errorf("run_ycsb() = %d, %v; want 264", got, err)
	}
}
