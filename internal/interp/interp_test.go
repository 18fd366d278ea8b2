package interp

import (
	"math"
	"strings"
	"testing"

	"privagic/internal/ir"
	"privagic/internal/minic"
	"privagic/internal/partition"
	"privagic/internal/passes"
	"privagic/internal/sgx"
	"privagic/internal/typing"
)

// build compiles, analyzes, partitions and loads a program.
func build(t testing.TB, mode typing.Mode, src string, entries ...string) *Interp {
	t.Helper()
	mod, err := minic.Compile("test.c", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return load(t, mod, mode, entries)
}

// load runs the pass pipeline, analyzes, partitions and loads a module.
func load(t testing.TB, mod *ir.Module, mode typing.Mode, entries []string) *Interp {
	t.Helper()
	passes.RunAll(mod)
	an := typing.Analyze(mod, typing.Options{Mode: mode, Entries: entries})
	if err := an.Err(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	prog, err := partition.Partition(an)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	ip := New(prog, sgx.MachineB())
	t.Cleanup(ip.Close)
	return ip
}

// TestRunFigure6 executes the complete example of Figures 6 and 7 end to
// end: main must return 42 (via f's Free result shipped to main.U with a
// cont message) and printf must run exactly once in normal mode.
func TestRunFigure6(t *testing.T) {
	ip := build(t, typing.Relaxed, `
int color(U) unsafe = 0;
int color(blue) blue = 10;
int color(red) red = 0;

void g(int n) {
	blue = n;
	red = n;
	printf("Hello\n");
}
int f(int y) {
	g(21);
	return 42;
}
entry int main() {
	unsafe = 1;
	int x = f(blue);
	return x;
}
`, "main")
	ret, err := ip.Call("main")
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if ret != 42 {
		t.Errorf("main() = %d, want 42", ret)
	}
	if got := ip.Output(); got != "Hello\n" {
		t.Errorf("output = %q, want %q", got, "Hello\n")
	}
	// The blue and red globals must hold 21 in their own enclaves.
	checkGlobal(t, ip, "blue", 21)
	checkGlobal(t, ip, "red", 21)
	checkGlobal(t, ip, "unsafe", 1)
	// Messages flowed over the queues (spawns s1-s3, conts).
	_, messages, _, _ := ip.RT.Meter.Counts()
	if messages < 4 {
		t.Errorf("only %d queue messages; Figure 7 needs spawns and conts", messages)
	}
}

func checkGlobal(t *testing.T, ip *Interp, name string, want int64) {
	t.Helper()
	g := ip.Prog.Mod.Global(name)
	if g == nil {
		t.Fatalf("no global %s", name)
	}
	addr := ip.globals[g]
	rid, off := sgx.DecodePtr(addr)
	var buf [8]byte
	ip.RT.Space.Region(rid).Load(off, buf[:g.Elem.Size()])
	if got := getInt(buf[:g.Elem.Size()]); got != want {
		t.Errorf("global %s = %d, want %d", name, got, want)
	}
}

// TestGlobalsLandInTheirRegions checks the §7.1 placement: colored globals
// live in enclave regions, unsafe globals in region 0.
func TestGlobalsLandInTheirRegions(t *testing.T) {
	ip := build(t, typing.Relaxed, `
int color(blue) secret = 7;
int open = 3;
entry int main() { return secret; }
`, "main")
	g := ip.Prog.Mod.Global("secret")
	rid, _ := sgx.DecodePtr(ip.globals[g])
	if rid == sgx.Unsafe {
		t.Error("blue global placed in unsafe memory")
	}
	g2 := ip.Prog.Mod.Global("open")
	rid2, _ := sgx.DecodePtr(ip.globals[g2])
	if rid2 != sgx.Unsafe {
		t.Error("uncolored global not in unsafe memory")
	}
}

// TestSingleColorCounter runs a single-enclave program with control flow,
// a loop, and repeated entry calls.
func TestSingleColorCounter(t *testing.T) {
	ip := build(t, typing.Relaxed, `
long color(blue) total = 0;
entry void add(long n) {
	for (long i = 0; i < n; i++)
		total = total + 1;
}
entry long get() {
	return total;
}
`, "add", "get")
	for i := 0; i < 5; i++ {
		if _, err := ip.Call("add", 10); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	// get returns a blue value; as a raw entry result it is the chunk's
	// return, which the harness may read (a real deployment would
	// declassify first).
	got, err := ip.Call("get")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got != 50 {
		t.Errorf("get() = %d, want 50", got)
	}
}

// TestFigure1Account runs the Figure 1 bank-account example with a
// two-color split structure: the name bytes must physically live in the
// blue region and the balance in the red region (§7.2).
func TestFigure1Account(t *testing.T) {
	ip := build(t, typing.Relaxed, `
struct account {
	char color(blue) name[16];
	double color(red) balance;
};
struct account* acc;

entry void create(char* name) {
	struct account* res = malloc(sizeof(struct account));
	strncpy(res->name, name, 16);
	res->balance = 0.0;
	acc = res;
}
entry void deposit(double v) {
	acc->balance = acc->balance + v;
}
entry double balance() {
	return acc->balance;
}
entry long name_len() {
	return strlen(acc->name);
}
`, "create", "deposit", "balance", "name_len")

	// Write the name into unsafe memory so create can read it.
	nameOff := ip.RT.Space.Region(sgx.Unsafe).Alloc(16)
	ip.RT.Space.Region(sgx.Unsafe).Store(nameOff, []byte("alice\x00"))
	if _, err := ip.Call("create", int64(sgx.EncodePtr(sgx.Unsafe, nameOff))); err != nil {
		t.Fatalf("create: %v", err)
	}
	// A double crosses Call as its IEEE-754 bits, both ways.
	for i := 0; i < 2; i++ {
		if _, err := ip.Call("deposit", int64(math.Float64bits(2.5))); err != nil {
			t.Fatalf("deposit: %v", err)
		}
	}
	if bits, err := ip.Call("balance"); err != nil || math.Float64frombits(uint64(bits)) != 5.0 {
		t.Errorf("balance = (%v, %v), want (5, nil)", math.Float64frombits(uint64(bits)), err)
	}
	if n, err := ip.Call("name_len"); err != nil || n != 5 {
		t.Errorf("name_len = (%d, %v), want (5, nil)", n, err)
	}
	// The struct body is in unsafe memory; its name field slot holds a
	// pointer into the blue region, balance slot into red.
	g := ip.Prog.Mod.Global("acc")
	rid, off := sgx.DecodePtr(ip.globals[g])
	var buf [8]byte
	ip.RT.Space.Region(rid).Load(off, buf[:])
	structAddr := uint64(getInt(buf[:]))
	srid, soff := sgx.DecodePtr(structAddr)
	if srid != sgx.Unsafe {
		t.Fatalf("split struct body in region %d, want unsafe", srid)
	}
	ip.RT.Space.Region(sgx.Unsafe).Load(soff, buf[:])
	nameRid, _ := sgx.DecodePtr(uint64(getInt(buf[:])))
	ip.RT.Space.Region(sgx.Unsafe).Load(soff+8, buf[:])
	balRid, _ := sgx.DecodePtr(uint64(getInt(buf[:])))
	if nameRid == sgx.Unsafe || balRid == sgx.Unsafe || nameRid == balRid {
		t.Errorf("field regions: name=%d balance=%d; want two distinct enclaves", nameRid, balRid)
	}
}

// TestIsolationEnforcedAtRuntime checks the defense-in-depth property: the
// simulated SGX refuses cross-enclave access even if (hypothetically)
// generated code tried it. We reach into the machine directly.
func TestIsolationEnforcedAtRuntime(t *testing.T) {
	ip := build(t, typing.Relaxed, `
int color(blue) secret = 99;
entry int main() { return 0; }
`, "main")
	g := ip.Prog.Mod.Global("secret")
	addr := ip.globals[g]
	ref := ip.RT.Space.Resolve(addr)
	// Normal mode reading blue memory must fault.
	err := ref.Check(sgx.Unsafe, 8, false)
	if err == nil {
		t.Fatal("normal mode read enclave memory")
	}
	var ae *sgx.AccessError
	if !asAccessError(err, &ae) {
		t.Fatalf("error %v is not an AccessError", err)
	}
	// Another enclave must fault too.
	rid, _ := sgx.DecodePtr(addr)
	other := rid + 1
	if int(other) >= len(ip.RT.Space.Regions()) {
		other = rid - 1
	}
	if other > 0 {
		if err := ref.Check(other, 8, false); err == nil {
			t.Fatal("enclave read another enclave's memory")
		}
	}
	// The owner enclave may read it.
	if err := ref.Check(rid, 8, false); err != nil {
		t.Fatalf("owner enclave denied: %v", err)
	}
	var buf [8]byte
	ref.Region.Load(ref.Off, buf[:])
	if getInt(buf[:]) != 99 {
		t.Errorf("secret = %d, want 99", getInt(buf[:]))
	}
}

func asAccessError(err error, target **sgx.AccessError) bool {
	for err != nil {
		if ae, ok := err.(*sgx.AccessError); ok {
			*target = ae
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestMultiThreadedProgram runs the paper's headline scenario: multiple
// application threads hammering one colored data structure concurrently.
func TestMultiThreadedProgram(t *testing.T) {
	ip := build(t, typing.Relaxed, `
long color(blue) counter = 0;
long done = 0;

void worker(long n) {
	for (long i = 0; i < n; i++)
		counter = counter + 1;
	done = done + 1;
}
entry void spawn_workers() {
	thread_create(worker, 1000);
	worker(1000);
	thread_join();
}
entry long get() { return counter; }
`, "spawn_workers", "get")
	if _, err := ip.Call("spawn_workers"); err != nil {
		t.Fatalf("spawn_workers: %v", err)
	}
	got, err := ip.Call("get")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	// Increments race (no lock in the program), but both threads ran:
	// the counter must be at least 1000 and at most 2000.
	if got < 1000 || got > 2000 {
		t.Errorf("counter = %d, want within [1000, 2000]", got)
	}
}

// TestRecursion checks deep recursive execution through a colored function.
func TestRecursion(t *testing.T) {
	ip := build(t, typing.Relaxed, `
entry long fib(long n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
`, "fib")
	got, err := ip.Call("fib", 15)
	if err != nil {
		t.Fatalf("fib: %v", err)
	}
	if got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
}

// TestStringsAndPrintf exercises the mini-libc and formatting.
func TestStringsAndPrintf(t *testing.T) {
	ip := build(t, typing.Relaxed, `
char msg[32] = "hi";
entry int main() {
	printf("s=%s n=%d x=%x c=%c f=%f\n", msg, 42, 255, 'A', 1.5);
	return strlen(msg);
}
`, "main")
	ret, err := ip.Call("main")
	if err != nil {
		t.Fatalf("main: %v", err)
	}
	if ret != 2 {
		t.Errorf("strlen = %d, want 2", ret)
	}
	want := "s=hi n=42 x=ff c=A f=1.5\n"
	if got := ip.Output(); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

// TestExit checks that exit() surfaces as an error.
func TestExit(t *testing.T) {
	ip := build(t, typing.Relaxed, `
entry int main() {
	exit(3);
	return 0;
}
`, "main")
	_, err := ip.Call("main")
	if err == nil || !strings.Contains(err.Error(), "exit") {
		t.Errorf("err = %v, want exit error", err)
	}
}
