package partition

import (
	"testing"

	"privagic/internal/typing"
)

const leavesSrc = `
ignore long reveal(long color(blue) v);
long color(blue) acc = 0;
long shared = 0;
void publish(long n) { acc = acc + n; shared = reveal(acc); }
void outer(long n) { publish(n); }
void work(long p) { acc = acc + p; }
void apply(void (*fp)(long), long n) { fp(n); }
entry void direct(long n) { outer(n); }
entry void indirect(long n) { apply(work, n); }
entry void threads(long n) {
	thread_create(work, n);
	thread_join();
}
`

// TestLeaves: a chunk is a leaf unless its body, or a body it reaches
// through direct calls, holds a runtime intrinsic, an indirect call or a
// thread builtin.
func TestLeaves(t *testing.T) {
	p := partitionSrc(t, typing.Relaxed, leavesSrc)
	want := map[string]bool{
		"work(F).blue":    true,  // loads and stores only
		"publish(F).blue": false, // sends a cont
		"direct(F).blue":  false, // reaches publish(F).blue through outer(F).blue
		"apply(F,F).U":    false, // calls through fp
		"threads(F).U":    false, // thread_create, thread_join
	}
	leaves := p.Leaves()
	for _, ch := range p.ChunkByID {
		w, ok := want[ch.Name()]
		if !ok {
			continue
		}
		delete(want, ch.Name())
		if leaves[ch.ID] != w {
			t.Errorf("%s: leaf = %v, want %v\n%s", ch.Name(), leaves[ch.ID], w, ch.Fn.String2())
		}
	}
	for name := range want {
		t.Errorf("no chunk %s", name)
	}
}
