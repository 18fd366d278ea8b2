package interp

import (
	"testing"

	"privagic/internal/typing"
)

// The compiled tier fuses minic's truth idiom (cmp, cast, cmp ne 0,
// condbr) into one compare-and-branch step and a plain fieldaddr with the
// load or store through it into one field-access step
// (internal/passes/compile). These programs pin the shapes where a fused
// step could differ from the instructions it replaces, on every engine.

// fusedPhiSrc's join φ reads the cast of the fused `t = i % 3 == 0;
// if (t)` on the edge the compare-and-branch takes, so the step must
// write the cast's slot before it runs the edge copies.
const fusedPhiSrc = `
long philoop(long n) {
	long s = 0;
	for (long i = 0; i < n; i = i + 1) {
		long t = i % 3 == 0;
		if (t) { t = 10; }
		s = s + t;
	}
	return s;
}
entry long main() {
	return philoop(10);
}
`

// fusedNeSrc's φs read both the cast and the `ne` of a fused chain on the
// taken edge (minic never feeds a φ from the `ne`, so it is written in
// IR). An iteration adds 10 when i%3 == 0 (t from %then, u 0) and
// 1 + 1000 otherwise (t and u are the chain's cast and ne, both 1).
const fusedNeSrc = `
define i64 @main() entry {
entry:
  br %head
head:
  %i = phi [0, %entry], [%i2, %join]
  %s = phi [0, %entry], [%s3, %join]
  %q = rem %i, 3
  %c = cmp ne %q, 0
  %w = cast %c to i64
  %n = cmp ne %w, 0
  condbr %n, %join, %then
then:
  br %join
join:
  %t = phi [%w, %head], [10, %then]
  %u = phi [%n, %head], [0, %then]
  %uw = cast %u to i64
  %v = mul %uw, 1000
  %s2 = add %s, %t
  %s3 = add %s2, %v
  %i2 = add %i, 1
  %more = cmp lt %i2, 10
  condbr %more, %head, %exit
exit:
  ret %s3
}
`

// fieldReuseSrc uses a fieldaddr again after the load fused with it: the
// fused step must still write the fieldaddr's slot (main returns the
// loaded 42 plus the field's offset, 8).
const fieldReuseSrc = `
%pair = { i64 a, i64 b }
define i64 @main() entry {
entry:
  %p = malloc %pair
  %f = fieldaddr %p, 1 (b)
  store 5, %f
  %g = fieldaddr %p, 1 (b)
  %v = load i64, %g
  %v2 = add %v, 37
  store %v2, %g
  %w = load i64, %g
  %pi = cast %p to i64
  %gi = cast %g to i64
  %d = sub %gi, %pi
  %r = add %w, %d
  ret %r
}
`

// fusedErrSrc reaches fused field loads and stores through a nil
// pointer, and livelocks in a compare-and-branch loop.
const fusedErrSrc = `
struct pair { long a; long b; };
entry long nilload(struct pair* p) { return p->a; }
entry void nilstore(struct pair* p) { p->a = 3; }
entry long spin(struct pair* p) { while (p != 0) { } return 1; }
`

// TestFusedShapesAgree runs the fused shapes on every engine.
func TestFusedShapesAgree(t *testing.T) {
	cases := []struct {
		name string
		ip   func(t *testing.T) *Interp
		want int64
	}{
		{"phi_reads_cast", func(t *testing.T) *Interp { return build(t, typing.Relaxed, fusedPhiSrc, "main") }, 4*10 + 0},
		{"phi_reads_ne", func(t *testing.T) *Interp { return buildIR(t, fusedNeSrc, "main") }, 4*10 + 6*1001},
		{"fieldaddr_reused", func(t *testing.T) *Interp { return buildIR(t, fieldReuseSrc, "main") }, 42 + 8},
	}
	for _, c := range cases {
		for _, eng := range allEngines {
			t.Run(c.name+"/"+eng.String(), func(t *testing.T) {
				runMain(t, c.ip(t), eng, c.want)
			})
		}
	}
}

// TestFusedErrorsAgree checks the error texts of the fused steps, on
// every engine, against the texts the unfused instructions raise.
func TestFusedErrorsAgree(t *testing.T) {
	cases := []struct {
		entry string
		want  string
	}{
		{"nilload", `interp: nil dereference: "%t4 = load i64, %t3" in @nilload(F).U`},
		{"nilstore", `interp: nil dereference: "store 3, %t3" in @nilstore(F).U`},
		{"spin", `interp: instruction budget exceeded in @spin(F).U (livelock?)`},
	}
	for _, c := range cases {
		for _, eng := range allEngines {
			t.Run(c.entry+"/"+eng.String(), func(t *testing.T) {
				// The livelock spends the whole step budget, 10^8 block
				// transfers: about 1 s compiled and 18 s interpreted on
				// 2 vCPU, ten times that under the race detector, which
				// has nothing to check in one goroutine. The differential
				// row runs the interpreter live and checks the compiled
				// tier's error text against it, so it stands for the
				// interpreter row, and runs only without -short.
				if c.entry == "spin" && (raceEnabled || eng == EngineInterp ||
					eng == EngineDifferential && testing.Short()) {
					t.Skip("the livelock runs compiled, and differential without -short, in race-free builds")
				}
				ip := build(t, typing.Relaxed, fusedErrSrc, c.entry)
				if err := ip.SetEngine(eng); err != nil {
					t.Fatalf("SetEngine: %v", err)
				}
				arg := int64(0)
				if c.entry == "spin" {
					arg = 0x1000
				}
				_, err := ip.Call(c.entry, arg)
				if err == nil || err.Error() != c.want {
					t.Fatalf("%s error = %v, want %q", c.entry, err, c.want)
				}
			})
		}
	}
}
