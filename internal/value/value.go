// Package value defines Val, the machine value both execution tiers
// compute in and the Privagic runtime carries in its messages. It depends
// only on the standard library so that internal/prt (message payloads)
// and internal/exec (the engines' shared contract, which itself imports
// prt) can both name it.
package value

import "math"

// Val is one 64-bit machine word: an integer or encoded pointer as
// itself, a float as its IEEE-754 bits. The word does not say which: the
// IR type of the instruction that reads it does (DESIGN.md §18). Both
// engines compute exclusively in Vals, so "the engines returned the same
// Val" is a meaningful bitwise check.
type Val struct {
	// I holds the word.
	I int64
}

// IV makes an integer value.
func IV(x int64) Val { return Val{I: x} }

// FV makes a float value: the word holds the float's bits.
func FV(x float64) Val { return Val{I: int64(math.Float64bits(x))} }

// F reads a float value's bits back as a float.
func F(v Val) float64 { return math.Float64frombits(uint64(v.I)) }
