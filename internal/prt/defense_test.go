package prt

import (
	"errors"
	"testing"
	"time"
	"unsafe"

	"privagic/internal/sgx"
	"privagic/internal/value"
)

// mutateCont simulates the §4 attacker rewriting a queued message in
// place: the payload word changes between enqueue and dequeue while the
// auth stamp, epoch and stream sequence — everything the plain admit gate
// checks — stay intact (EnqueueRaw preserves the unexported metadata).
type mutateCont struct{ tag int }

func (m mutateCont) Deliver(to *Worker, msg Message) {
	if msg.Kind == MsgCont && msg.Tag == m.tag {
		msg.Payload.I ^= 0x5a5a
	}
	to.EnqueueRaw(msg)
}

// TestPayloadTagRejectsMutatedCont checks the dequeue half of payload
// integrity: a cont whose payload was rewritten in the queue is rejected
// at the admit gate (counted as tampered), the waiter degrades to a typed
// timeout instead of consuming the corrupted value, and the rest of the
// stream — the untouched completion behind it — still flows.
func TestPayloadTagRejectsMutatedCont(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			w.SendCont(0, 4, iv(1234))
			return iv(7001)
		},
	})
	rt.PayloadTags = true
	rt.WaitTimeout = 50 * time.Millisecond
	rt.SetInterceptor(mutateCont{tag: 4})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	if _, err := u.Wait(4); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("Wait on mutated cont = %v, want ErrWaitTimeout", err)
	}
	// The rejected message consumed its stream position, so the clean
	// completion behind it is still admitted.
	if got, err := u.Join(1); err != nil || got != iv(7001) {
		t.Fatalf("Join after rejected cont = %v, %v", got, err)
	}
	if st := rt.SupervisionStats(); st.PayloadTampered != 1 {
		t.Errorf("PayloadTampered = %d, want 1", st.PayloadTampered)
	}
}

// TestPayloadTagsCleanPassthrough is the zero-fault control: with tags
// armed and nothing mutating, the full spawn/cont/join protocol is
// unchanged and nothing is counted as tampered.
func TestPayloadTagsCleanPassthrough(t *testing.T) {
	rt := New(sgx.MachineB(), []string{"blue"}, func(w *Worker, chunkID int, args []val) (val, error) {
		w.SendCont(0, 3, iv(args[0].I*2))
		return iv(args[0].I + 1), nil
	})
	rt.PayloadTags = true
	rt.WaitTimeout = time.Second
	th := rt.NewThread()
	defer func() { th.Close(); rt.Shutdown() }()
	u := th.Normal()
	for j := 0; j < 100; j++ {
		u.Spawn(1, 1, []val{iv(j)})
		if got, err := u.Wait(3); err != nil || got != iv(j*2) {
			t.Fatalf("round %d: Wait = %v, %v", j, got, err)
		}
		if got, err := u.Join(1); err != nil || got != iv(j+1) {
			t.Fatalf("round %d: Join = %v, %v", j, got, err)
		}
	}
	if st := rt.SupervisionStats(); st.PayloadTampered != 0 {
		t.Errorf("clean run counted %d tampered payloads", st.PayloadTampered)
	}
}

// TestPayloadSumSensitivity pins down what the tag covers: every field an
// in-place mutation could profitably touch — kind, routing, the payload
// word, each argument word (a float's bits included), and the stream metadata a replay would have
// to reuse — changes the sum, while an identical copy reproduces it.
func TestPayloadSumSensitivity(t *testing.T) {
	base := Message{
		Kind: MsgCont, ChunkID: 3, Tag: 4, From: 1,
		Payload: iv(7), Args: []val{iv(1), value.FV(2.5)},
		epoch: 5, strSeq: 9,
	}
	sum := payloadSum(&base)
	cp := base
	cp.Args = []val{iv(1), value.FV(2.5)} // equal contents, distinct backing
	if payloadSum(&cp) != sum {
		t.Fatal("identical message produced a different sum")
	}
	mutate := map[string]func(m *Message){
		"kind":     func(m *Message) { m.Kind = MsgDone },
		"chunk":    func(m *Message) { m.ChunkID = 8 },
		"tag":      func(m *Message) { m.Tag = 5 },
		"from":     func(m *Message) { m.From = 2 },
		"payload":  func(m *Message) { m.Payload = iv(8) },
		"arg0":     func(m *Message) { m.Args[0] = iv(2) },
		"arg1":     func(m *Message) { m.Args[1] = value.FV(2.75) },
		"arg1.bit": func(m *Message) { m.Args[1].I ^= 1 }, // lowest mantissa bit of the float
		"argN":     func(m *Message) { m.Args = append(m.Args, iv(0)) },
		"epoch":    func(m *Message) { m.epoch = 6 },
		"strSeq":   func(m *Message) { m.strSeq = 10 },
	}
	for name, f := range mutate {
		m := base
		m.Args = append([]val(nil), base.Args...)
		f(&m)
		if payloadSum(&m) == sum {
			t.Errorf("mutating %s did not change the payload sum", name)
		}
	}
}

// TestWordLayout pins the one-word value representation: a Val is a
// single 64-bit word (a float travels as its bits, typed by the IR), so
// a Message carries its payload in one word.
func TestWordLayout(t *testing.T) {
	if n := unsafe.Sizeof(value.Val{}); n != 8 {
		t.Errorf("value.Val is %d bytes, want 8", n)
	}
	if n := unsafe.Sizeof(Message{}); n > 128 {
		t.Errorf("prt.Message is %d bytes, want at most 128", n)
	}
}
