// Package value defines Val, the machine value both execution tiers
// compute in and the Privagic runtime carries in its messages. It has no
// dependencies so that internal/prt (message payloads) and internal/exec
// (the engines' shared contract, which itself imports prt) can both name
// it.
package value

// Val is one machine value: an integer (or encoded pointer) in I, or a
// float in F when Fl is set. Both engines compute exclusively in Vals,
// so "the engines returned the same Val" is a meaningful bitwise check.
type Val struct {
	// I holds the integer or encoded-pointer payload.
	I int64
	// F holds the float payload when Fl is true.
	F float64
	// Fl marks the value as a float.
	Fl bool
}

// IV makes an integer value.
func IV(x int64) Val { return Val{I: x} }

// FV makes a float value.
func FV(x float64) Val { return Val{F: x, Fl: true} }

// ToF reads the value as a float (integers convert).
func ToF(v Val) float64 {
	if v.Fl {
		return v.F
	}
	return float64(v.I)
}
