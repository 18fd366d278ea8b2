package sgx

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPointerEncoding(t *testing.T) {
	f := func(r uint16, off uint64) bool {
		rid := RegionID(r % 64)
		off &= offsetMask
		gr, goff := DecodePtr(EncodePtr(rid, off))
		return gr == rid && goff == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAccessMatrix checks §2.1's access rules exhaustively for three
// regions: normal mode reaches only unsafe memory, an enclave reaches
// itself and unsafe memory, never a sibling enclave.
func TestAccessMatrix(t *testing.T) {
	cases := []struct {
		mode   Mode
		target RegionID
		want   bool
	}{
		{Unsafe, Unsafe, true},
		{Unsafe, 1, false},
		{Unsafe, 2, false},
		{1, Unsafe, true},
		{1, 1, true},
		{1, 2, false},
		{2, 1, false},
		{2, 2, true},
	}
	for _, c := range cases {
		if got := CanAccess(c.mode, c.target); got != c.want {
			t.Errorf("CanAccess(%d, %d) = %v, want %v", c.mode, c.target, got, c.want)
		}
	}
}

func TestRegionGrowth(t *testing.T) {
	r := NewRegion(1, "blue")
	off := r.Alloc(1 << 20) // force growth
	data := make([]byte, 1<<20)
	data[0], data[len(data)-1] = 0xAA, 0xBB
	r.Store(off, data)
	out := make([]byte, 1<<20)
	r.Load(off, out)
	if out[0] != 0xAA || out[len(out)-1] != 0xBB {
		t.Error("large store/load roundtrip failed")
	}
	if r.Used() < 1<<20 {
		t.Errorf("Used() = %d", r.Used())
	}
}

func TestAllocAlignment(t *testing.T) {
	r := NewRegion(0, "u")
	for i := int64(1); i < 20; i++ {
		if off := r.Alloc(i); off%8 != 0 {
			t.Fatalf("Alloc(%d) = %d, not 8-aligned", i, off)
		}
	}
}

func TestCheckedAccess(t *testing.T) {
	as := NewAddressSpace("blue", "red")
	blue := as.Resolve(EncodePtr(1, as.Region(1).Alloc(8)))
	// Owner writes fine.
	if err := blue.Check(1, 8, true); err != nil {
		t.Fatal(err)
	}
	// Normal mode is rejected.
	if err := blue.Check(Unsafe, 8, false); err == nil {
		t.Error("normal mode read enclave memory")
	}
	// The sibling enclave is rejected.
	if err := blue.Check(2, 8, true); err == nil {
		t.Error("red wrote blue memory")
	}
	var ae *AccessError
	err := blue.Check(2, 8, false)
	if !asErr(err, &ae) || ae.Mode != 2 || ae.Target != 1 {
		t.Errorf("AccessError wrong: %v", err)
	}
}

// TestCheckRefusesUnmappedAndPastCeiling covers the rest of the access
// rules: an unmapped region, and ranges that end past MaxOffset or have
// a negative length, are refused for loads and stores alike.
func TestCheckRefusesUnmappedAndPastCeiling(t *testing.T) {
	as := NewAddressSpace("blue")
	if err := as.Resolve(EncodePtr(7, 8)).Check(7, 8, false); err == nil || !strings.Contains(err.Error(), "unmapped region 7") {
		t.Errorf("load from region 7 = %v, want an unmapped-region error", err)
	}
	for _, c := range []struct {
		off uint64
		n   int
	}{{MaxOffset - 4, 8}, {MaxOffset + 8, 0}, {1 << 40, 8}, {8, -1}} {
		for _, store := range []bool{false, true} {
			err := as.Resolve(EncodePtr(1, c.off)).Check(1, c.n, store)
			if err == nil || !strings.Contains(err.Error(), "beyond region ceiling") {
				t.Errorf("%d bytes at offset %#x (store %v) = %v, want a ceiling error", c.n, c.off, store, err)
			}
		}
	}
	if err := as.Resolve(EncodePtr(1, MaxOffset-8)).Check(1, 8, true); err != nil {
		t.Errorf("a store ending at MaxOffset = %v, want it allowed", err)
	}
}

func asErr(err error, target **AccessError) bool {
	ae, ok := err.(*AccessError)
	if ok {
		*target = ae
	}
	return ok
}

func TestMachinePresets(t *testing.T) {
	a, b := MachineA(), MachineB()
	if a.SGXv2 || !b.SGXv2 {
		t.Error("SGX versions wrong")
	}
	if a.EPCBytes != 93<<20 {
		t.Errorf("machine A EPC = %d", a.EPCBytes)
	}
	if b.EPCBytes != 8131<<20 {
		t.Errorf("machine B EPC = %d", b.EPCBytes)
	}
	if a.Cost.EnclaveMissFactor < 5.6 || a.Cost.EnclaveMissFactor > 9.5 {
		t.Errorf("enclave miss factor %.1f outside Eleos's 5.6-9.5 band", a.Cost.EnclaveMissFactor)
	}
	// The paper's core performance claim: Privagic's lock-free queue hop
	// is cheaper than the SDK's lock-based switchless call, which is
	// cheaper than a full transition.
	if !(a.Cost.QueueMessage < a.Cost.SwitchlessCall && a.Cost.SwitchlessCall < a.Cost.EnclaveTransition) {
		t.Error("cost ordering queue < switchless < transition violated")
	}
}

func TestMeter(t *testing.T) {
	m := MachineA()
	var mt Meter
	mt.ChargeTransition(&m.Cost)
	mt.ChargeMessage(&m.Cost)
	mt.ChargeSyscall(&m.Cost, Unsafe)
	mt.ChargeSyscall(&m.Cost, 1)
	mt.ChargePageFault(&m.Cost)
	tr, msg, sys, pf := mt.Counts()
	if tr != 1 || msg != 1 || sys != 2 || pf != 1 {
		t.Errorf("Counts = %d %d %d %d", tr, msg, sys, pf)
	}
	want := m.Cost.EnclaveTransition + m.Cost.QueueMessage +
		m.Cost.Syscall + m.Cost.SyscallFromEnclave + m.Cost.EPCPageFault
	if mt.Cycles() != want {
		t.Errorf("Cycles = %d, want %d", mt.Cycles(), want)
	}
	mt.Reset()
	if mt.Cycles() != 0 {
		t.Error("Reset failed")
	}
	if s := m.SecondsFor(3_000_000_000); s < 0.99 || s > 1.01 {
		t.Errorf("SecondsFor(3G cycles at 3GHz) = %f, want ~1s", s)
	}
}
