package privagic

import (
	"strings"
	"testing"

	"privagic/internal/sources"
)

// TestCompileAndRunQuickstart exercises the public API end to end.
func TestCompileAndRunQuickstart(t *testing.T) {
	src := `
ignore long reveal(long color(vault) v);
long color(vault) balance = 0;
entry void deposit(long color(vault) cents) { balance = balance + cents; }
entry long audit() { return reveal(balance); }
`
	prog, err := Compile("wallet.c", src, Options{Mode: Hardened})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Colors(); len(got) != 1 || got[0] != "vault" {
		t.Errorf("Colors() = %v, want [vault]", got)
	}
	inst := prog.Instantiate(nil)
	defer inst.Close()
	for _, c := range []int64{500, 125, 75} {
		if _, err := inst.Call("deposit", c); err != nil {
			t.Fatal(err)
		}
	}
	total, err := inst.Call("audit")
	if err != nil {
		t.Fatal(err)
	}
	if total != 700 {
		t.Errorf("audit() = %d, want 700", total)
	}
}

// TestCompileReportsTypeErrors checks error surfacing through the facade.
func TestCompileReportsTypeErrors(t *testing.T) {
	src := `
int color(blue) secret;
int leak;
entry void f() { leak = secret; }
`
	_, err := Compile("leak.c", src, Options{Mode: Hardened})
	if err == nil {
		t.Fatal("expected a confidentiality error")
	}
	if !strings.Contains(err.Error(), "secure typing") {
		t.Errorf("error %v does not come from the type system", err)
	}
}

// TestCheckWithoutPartitioning checks the analysis-only path.
func TestCheckWithoutPartitioning(t *testing.T) {
	an, err := Check("m.c", sources.MemcachedCoreColored, Options{Mode: Hardened})
	if err != nil {
		t.Fatal(err)
	}
	if terr := an.Err(); terr != nil {
		t.Fatalf("memcached core should type-check: %v", terr)
	}
	if len(an.Colors) != 1 || an.Colors[0].Name != "store" {
		t.Errorf("colors = %v, want [store]", an.Colors)
	}
}

// TestTCBReportThroughFacade checks the Table 4 path.
func TestTCBReportThroughFacade(t *testing.T) {
	prog, err := Compile("m.c", sources.MemcachedCoreColored, Options{Mode: Hardened})
	if err != nil {
		t.Fatal(err)
	}
	rep := prog.TCBReport()
	if rep.ReductionFactor() < 50 {
		t.Errorf("TCB reduction = %.0f, want large", rep.ReductionFactor())
	}
}

// TestUnsafeMemoryHelpers checks the buffer-passing helpers.
func TestUnsafeMemoryHelpers(t *testing.T) {
	src := `
entry long first_byte(char* p) { return p[0]; }
`
	prog, err := Compile("b.c", src, Options{Mode: Relaxed})
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.Instantiate(MachineA())
	defer inst.Close()
	addr := inst.AllocUnsafe(16)
	inst.WriteUnsafe(addr, []byte{42, 1, 2})
	got, err := inst.Call("first_byte", int64(addr))
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("first_byte = %d, want 42", got)
	}
	if b := inst.ReadUnsafe(addr, 3); b[0] != 42 || b[2] != 2 {
		t.Errorf("ReadUnsafe = %v", b)
	}
}

// TestEmitIRDeterministic compiles the memcached core repeatedly and
// requires byte-identical IR text: phi placement and naming must follow
// block order, never map iteration order.
func TestEmitIRDeterministic(t *testing.T) {
	emit := func() string {
		prog, err := Compile("memcached_core.c", sources.MemcachedCoreColored, Options{
			Mode: Relaxed, Entries: []string{"run_ycsb"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return prog.EmitIR()
	}
	want := emit()
	for i := 1; i < 8; i++ {
		if got := emit(); got != want {
			t.Fatalf("compile %d emitted different IR text than compile 0", i)
		}
	}
}
