package interp

import (
	"math"
	"testing"

	"privagic/internal/ir"
	"privagic/internal/typing"
)

// runMain runs a program's main on an engine, expecting a value.
func runMain(t *testing.T, ip *Interp, eng Engine, want int64) {
	t.Helper()
	if err := ip.SetEngine(eng); err != nil {
		t.Fatalf("SetEngine: %v", err)
	}
	got, err := ip.Call("main")
	if err != nil {
		t.Fatalf("main: %v", err)
	}
	if got != want {
		t.Errorf("main() = %d, want %d", got, want)
	}
}

// TestLanguageSemantics pins down MiniC semantics end to end through the
// whole pipeline (frontend, SSA, typing, partitioning, execution), on
// every engine: the float cases check that each one reads a word as a
// float exactly where the IR type says so.
func TestLanguageSemantics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int64
	}{
		{"arith", `entry long main() { return (7 + 3) * 2 - 6 / 2; }`, 17},
		{"precedence", `entry long main() { return 2 + 3 * 4; }`, 14},
		{"rem", `entry long main() { return 17 % 5; }`, 2},
		{"neg", `entry long main() { return -5 + 3; }`, -2},
		{"bitops", `entry long main() { return (12 & 10) | (1 << 4) ^ 3; }`, 27},
		{"shift", `entry long main() { return 1 << 10 >> 2; }`, 256},
		{"bitnot", `entry long main() { return ~0 + 2; }`, 1},
		{"cmpchain", `entry long main() { return (3 < 5) + (5 <= 5) + (7 > 9) + (2 != 2); }`, 2},
		{"logand", `entry long main() { long a = 0; return (a && (1/a)) + 5; }`, 5}, // short circuit avoids div by 0
		{"logor", `entry long main() { long a = 1; return (a || (1/0*0)) + 5; }`, 6},
		{"not", `entry long main() { return !0 + !7; }`, 1},
		{"ternaryless", `entry long main() { long r; if (3 > 2) r = 10; else r = 20; return r; }`, 10},
		{"whileloop", `entry long main() { long s = 0; long i = 0; while (i < 10) { s += i; i++; } return s; }`, 45},
		{"forbreak", `entry long main() { long s = 0; for (long i = 0; i < 100; i++) { if (i == 5) break; s += i; } return s; }`, 10},
		{"forcontinue", `entry long main() { long s = 0; for (long i = 0; i < 6; i++) { if (i % 2) continue; s += i; } return s; }`, 6},
		{"nestedloop", `entry long main() { long s = 0; for (long i = 0; i < 3; i++) for (long j = 0; j < 3; j++) s += i * j; return s; }`, 9},
		{"incdec", `entry long main() { long x = 5; long a = x++; long b = ++x; long c = x--; return a * 100 + b * 10 + c - x; }`, 571},
		{"compound", `entry long main() { long x = 10; x += 5; x -= 3; return x; }`, 12},
		{"charmath", `entry long main() { char c = 'A'; return c + 2; }`, 67},
		{"sizeofint", `entry long main() { return sizeof(long) + sizeof(char); }`, 9},
		{"sizeofptr", `entry long main() { return sizeof(long*); }`, 8},
		{"cast", `entry long main() { double d = 3.9; return (long)d; }`, 3},
		{"floatarith", `entry long main() { double d = 1.5; d = d * 4.0; return (long)d; }`, 6},
		{"floatdiv", `entry long main() { double a = 7.0; double b = 2.0; return (long)(a / b * 10.0); }`, 35},
		// -2.5 < -1.5 as floats, but not as the words' integer bits.
		{"floatcmp", `entry long main() {
	double a = -2.5; double b = -1.5;
	return (a < b) + (a <= b) * 2 + (a > b) * 4 + (a >= b) * 8 + (a == b) * 16 + (a != b) * 32 + (a == -2.5) * 64;
}`, 99},
		{"floatnarrow", `entry long main() { double d = 300.7; char c = (char)d; return c; }`, 44},
		{"intwiden", `entry long main() { long n = -7; double x = (double)n / 2.0; return (long)(x * 10.0); }`, -35},
		{"floatphi", `entry long main() {
	double s = 0.0;
	for (long i = 0; i < 10; i++) s = s + 0.25 * i;
	return (long)(s * 100.0);
}`, 1125},
		{"floatincdec", `entry long main() { double x = 1.5; x++; ++x; x--; return (long)(x * 10.0); }`, 25},
		{"ptrarith", `
long arr[8];
entry long main() {
	long* p = arr;
	for (long i = 0; i < 8; i++) arr[i] = i * i;
	p = p + 3;
	return *p + p[1];
}`, 25},
		{"addrderef", `
entry long main() {
	long x = 41;
	long* p = &x;
	*p = *p + 1;
	return x;
}`, 42},
		{"globals", `
long g1 = 100;
long g2 = -40;
entry long main() { return g1 + g2; }`, 60},
		{"recursion", `
long gcd(long a, long b) { if (b == 0) return a; return gcd(b, a % b); }
entry long main() { return gcd(48, 36); }`, 12},
		{"mutualrec", `
long is_odd(long n);
long is_even(long n) { if (n == 0) return 1; return is_odd(n - 1); }
long is_odd(long n) { if (n == 0) return 0; return is_even(n - 1); }
entry long main() { return is_even(10) * 10 + is_odd(7); }`, 11},
		{"structs", `
struct point { long x; long y; };
entry long main() {
	struct point* p = malloc(sizeof(struct point));
	p->x = 3;
	p->y = 4;
	return p->x * p->x + p->y * p->y;
}`, 25},
		{"structarray", `
struct pair { long a; long b; };
struct pair table[4];
entry long main() {
	for (long i = 0; i < 4; i++) { table[i].a = i; table[i].b = i * 10; }
	return table[2].a + table[3].b;
}`, 32},
		{"linkedheap", `
struct node { long v; struct node* next; };
entry long main() {
	struct node* head = 0;
	for (long i = 1; i <= 4; i++) {
		struct node* n = malloc(sizeof(struct node));
		n->v = i;
		n->next = head;
		head = n;
	}
	long s = 0;
	while (head != 0) { s = s * 10 + head->v; head = head->next; }
	return s;
}`, 4321},
		{"strings", `
entry long main() {
	char buf[16];
	strncpy(buf, "hola", 16);
	return strlen(buf) + (strcmp(buf, "hola") == 0) * 10;
}`, 14},
		{"memset", `
entry long main() {
	char buf[8];
	memset(buf, 7, 8);
	long s = 0;
	for (long i = 0; i < 8; i++) s += buf[i];
	return s;
}`, 56},
		{"hash", `
entry long main() {
	char a[4]; char b[4];
	memset(a, 3, 4); memset(b, 3, 4);
	return hash64(a, 4) == hash64(b, 4);
}`, 1},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, eng := range allEngines {
				t.Run(eng.String(), func(t *testing.T) {
					runMain(t, build(t, typing.Relaxed, c.src, "main"), eng, c.want)
				})
			}
		})
	}
	// MiniC has no 32-bit integer: the f64→i32 narrowing is written in IR
	// (3007000000 wraps to -1287967296 in 32 bits, and to -64 in 8).
	const narrow32 = `
define i64 @main() {
entry:
  %d = mul 300.7, 10000000.0
  %n = cast %d to i32
  %c = cast %d to i8
  %w = cast %n to i64
  %b = cast %c to i64
  %s = mul %b, 10000000000
  %r = add %w, %s
  ret %r
}
`
	t.Run("floatnarrow32", func(t *testing.T) {
		for _, eng := range allEngines {
			t.Run(eng.String(), func(t *testing.T) {
				runMain(t, buildIR(t, narrow32, "main"), eng, -1287967296-640000000000)
			})
		}
	})
}

// TestFloatWordsCrossMessages sends doubles through every kind of
// message on every engine: the entry argument x travels to the blue chunk
// in a spawn and on to bump's red chunk in another, and f's result comes
// back to the U chunk in a cont (its printf shows the word arrived
// intact). Call passes and returns a double as its IEEE-754 bits.
func TestFloatWordsCrossMessages(t *testing.T) {
	const src = `
double color(blue) bal = 10.0;
double color(red) acc = 0.5;
void bump(double d) { acc = acc + d; }
double f(double y, double z) { bal = y + z; bump(z); return z * 4.0; }
entry double run(double x) {
	double r = f(bal, x);
	printf("%f\n", r);
	return r + x;
}
`
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			ip := build(t, typing.Relaxed, src, "run")
			if err := ip.SetEngine(eng); err != nil {
				t.Fatalf("SetEngine: %v", err)
			}
			bits, err := ip.Call("run", int64(math.Float64bits(0.625)))
			if got := math.Float64frombits(uint64(bits)); err != nil || got != 3.125 {
				t.Fatalf("run(0.625) = %v, %v; want 3.125", got, err)
			}
			if out := ip.Output(); out != "2.5\n" {
				t.Errorf("output = %q, want %q", out, "2.5\n")
			}
			checkGlobal(t, ip, "bal", int64(math.Float64bits(10.625)))
			checkGlobal(t, ip, "acc", int64(math.Float64bits(1.125)))
			if _, msgs, _, _ := ip.RT.Meter.Counts(); msgs < 3 {
				t.Errorf("%d queue messages; want the spawns and the cont", msgs)
			}
		})
	}
}

// buildIR loads a program written in the textual IR.
func buildIR(t *testing.T, text string, entries ...string) *Interp {
	t.Helper()
	mod, err := ir.ParseModule("test.pir", text)
	if err != nil {
		t.Fatalf("ParseModule: %v", err)
	}
	return load(t, mod, typing.Relaxed, entries)
}

// TestDivisionByZeroSurfaces checks runtime errors surface as errors.
func TestDivisionByZeroSurfaces(t *testing.T) {
	ip := build(t, typing.Relaxed, `entry long main() { long z = 0; return 5 / z; }`, "main")
	if _, err := ip.Call("main"); err == nil {
		t.Error("division by zero did not error")
	}
}

// TestNilDerefSurfaces checks nil dereferences surface as errors.
func TestNilDerefSurfaces(t *testing.T) {
	ip := build(t, typing.Relaxed, `
struct node { long v; struct node* next; };
entry long main() { struct node* n = 0; return n->v; }`, "main")
	if _, err := ip.Call("main"); err == nil {
		t.Error("nil dereference did not error")
	}
}
