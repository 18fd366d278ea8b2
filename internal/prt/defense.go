package prt

import "privagic/internal/value"

// Payload integrity tags (the third leg of the runtime Iago defense, next
// to copy-in snapshots and pointer sanitization in internal/interp).
//
// The auth stamp already proves a message *struct* was produced by the
// trusted runtime, and the stream sequence pins its position — but both
// live in the same U-memory queue node as the payload, and the §4
// attacker can rewrite the payload words in place after enqueue without
// touching either. payloadSum closes that window: a checksum over the
// message's kind, routing fields and typed payload words (the one word of
// every Val), computed inside the sender's enclave after the routing
// metadata is final and re-verified inside the receiver's enclave at the
// admit gate. It stands in for the
// MAC a production runtime would compute over the serialized message
// body; like the auth stamp, its unexported field means code outside the
// package cannot re-tag a mutated message.

// FNV-1a constants (64-bit).
const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

func sumU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func sumStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// sumVal folds one machine value into the checksum: its one word, so a
// change to any bit of an integer, a pointer or a float shows.
func sumVal(h uint64, v value.Val) uint64 { return sumU64(h, uint64(v.I)) }

// payloadSum computes the integrity tag of a message: everything the
// receiver acts on, except ReplyTo (a host pointer, re-validated by the
// join protocol itself) and the tag field holding the sum.
func payloadSum(m *Message) uint64 {
	h := fnvOffset
	h = sumU64(h, uint64(m.Kind))
	h = sumU64(h, uint64(m.ChunkID))
	h = sumU64(h, uint64(m.Tag))
	h = sumU64(h, uint64(m.From))
	h = sumU64(h, m.epoch)
	h = sumU64(h, m.strSeq)
	if m.Err != nil {
		h = sumStr(h, m.Err.Error())
	}
	h = sumVal(h, m.Payload)
	h = sumU64(h, uint64(len(m.Args)))
	for _, a := range m.Args {
		h = sumVal(h, a)
	}
	return h
}
