// Package sgx simulates the Intel SGX machine of the paper's evaluation:
// isolated enclave memory regions with processor-mode access checks (§2.1),
// an EPC capacity model, and a cycle cost model calibrated from the numbers
// the paper relies on (enclave transitions, the 5.6–9.5x LLC-miss penalty
// in enclave mode reported by Eleos [30], and switchless-call costs
// [40, 43]).
//
// No real SGX hardware is involved: this package is the substitution that
// DESIGN.md documents for the repro band. It preserves the two behaviours
// the evaluation depends on — who may touch which memory, and what each
// boundary crossing and cache miss costs.
package sgx

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// RegionID identifies a memory region: 0 is unsafe memory, positive IDs are
// enclaves.
type RegionID int

// Unsafe is the region ID of unsafe (normal-world) memory.
const Unsafe RegionID = 0

// Mode is the processor mode: Unsafe when executing in normal mode, or the
// region ID of the single active enclave (§2.1: "when the processor enters
// the enclave mode, it gains access to a single enclave").
type Mode = RegionID

// CanAccess implements the SGX access rules of §2.1: normal mode reaches
// only unsafe memory; enclave mode reaches its own enclave plus unsafe
// memory, never another enclave.
func CanAccess(mode Mode, target RegionID) bool {
	return target == Unsafe || target == mode
}

// AccessError reports a forbidden memory access, the simulated equivalent
// of the page-permission fault SGX raises.
type AccessError struct {
	Mode   Mode
	Target RegionID
	Addr   uint64
}

// Error implements the error interface.
func (e *AccessError) Error() string {
	return fmt.Sprintf("sgx: access violation: mode %d cannot touch region %d (addr %#x)", e.Mode, e.Target, e.Addr)
}

// Pointer encoding: the top 16 bits carry the region, the rest the offset.
const (
	regionShift = 48
	offsetMask  = (uint64(1) << regionShift) - 1
)

// EncodePtr packs a region and offset into a simulated 64-bit address.
// Offset 0 is reserved for nil, so allocations start at 8.
func EncodePtr(r RegionID, off uint64) uint64 {
	return uint64(r)<<regionShift | (off & offsetMask)
}

// DecodePtr unpacks a simulated address.
func DecodePtr(p uint64) (RegionID, uint64) {
	return RegionID(p >> regionShift), p & offsetMask
}

// Region is one memory region (unsafe memory or an enclave).
type Region struct {
	ID   RegionID
	Name string

	mu  sync.Mutex
	mem []byte
	// brk is the bump-allocation watermark. TryAlloc stores it while it
	// holds mu; Extent reads it without the lock (the sanitizer asks on
	// every boundary check).
	brk  atomic.Uint64
	used atomic.Int64
}

// NewRegion creates a region with a small initial reservation.
func NewRegion(id RegionID, name string) *Region {
	r := &Region{ID: id, Name: name, mem: make([]byte, 4096)}
	r.brk.Store(8)
	return r
}

// CeilingError reports an allocation the region refused because it would
// end past MaxOffset.
type CeilingError struct {
	Region RegionID
	Size   uint64
}

// Error implements the error interface.
func (e *CeilingError) Error() string {
	return fmt.Sprintf("sgx: allocation of %d bytes in region %d exceeds the region ceiling", e.Size, e.Region)
}

// TryAlloc bump-allocates n bytes (8-byte aligned) and returns the
// offset. An allocation that would end past MaxOffset is refused with a
// *CeilingError and leaves the region unchanged: a hostile or runaway
// size must fail the program, not exhaust the host's memory.
func (r *Region) TryAlloc(n int64) (uint64, error) {
	if n <= 0 {
		n = 1
	}
	r.mu.Lock()
	off := (r.brk.Load() + 7) &^ 7
	if uint64(n) > MaxOffset-off {
		r.mu.Unlock()
		return 0, &CeilingError{Region: r.ID, Size: uint64(n)}
	}
	end := off + uint64(n)
	r.brk.Store(end)
	for end > uint64(len(r.mem)) {
		r.mem = append(r.mem, make([]byte, len(r.mem))...)
	}
	r.mu.Unlock()
	r.used.Add(n)
	return off, nil
}

// Alloc is TryAlloc for callers whose sizes are bounded by the host
// (globals, entry-point buffers); it panics with the *CeilingError.
func (r *Region) Alloc(n int64) uint64 {
	off, err := r.TryAlloc(n)
	if err != nil {
		panic(err)
	}
	return off
}

// Used returns the bytes allocated so far (the EPC pressure input).
func (r *Region) Used() int64 { return r.used.Load() }

// Extent returns the allocation watermark: offsets below it are mapped,
// offsets at or above it have never been handed out by Alloc. This is the
// region's memory map as far as pointer sanitization is concerned — an
// address arriving from unsafe memory is only dereferenced if its whole
// range lies under the extent of its region.
func (r *Region) Extent() uint64 { return r.brk.Load() }

// Load copies len(buf) bytes at off into buf. Reads beyond the backing
// array are zero-filled instead of faulting: the simulated machine must
// never let a hostile (or corrupted) out-of-range address crash the host
// process — on real SGX the access faults inside the enclave, and here
// the sanitization layer (when armed) raises the typed violation before
// the load is even attempted.
func (r *Region) Load(off uint64, buf []byte) {
	r.mu.Lock()
	n := 0
	if off < uint64(len(r.mem)) {
		n = copy(buf, r.mem[off:])
	}
	r.mu.Unlock()
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
}

// Store copies buf into the region at off.
func (r *Region) Store(off uint64, buf []byte) {
	r.mu.Lock()
	for off+uint64(len(buf)) > uint64(len(r.mem)) {
		r.mem = append(r.mem, make([]byte, len(r.mem)+4096)...)
	}
	copy(r.mem[off:], buf)
	r.mu.Unlock()
}

// AddressSpace is the set of regions of one simulated machine run: unsafe
// memory plus one region per enclave color.
type AddressSpace struct {
	regions []*Region
}

// NewAddressSpace creates an address space with unsafe memory and the named
// enclaves (region IDs 1..n in order).
func NewAddressSpace(enclaves ...string) *AddressSpace {
	as := &AddressSpace{}
	as.regions = append(as.regions, NewRegion(Unsafe, "unsafe"))
	for i, name := range enclaves {
		as.regions = append(as.regions, NewRegion(RegionID(i+1), name))
	}
	return as
}

// Region returns the region with the given ID, or nil.
func (as *AddressSpace) Region(id RegionID) *Region {
	if int(id) < 0 || int(id) >= len(as.regions) {
		return nil
	}
	return as.regions[id]
}

// Regions returns all regions.
func (as *AddressSpace) Regions() []*Region { return as.regions }

// MaxOffset caps the in-region offset a checked access may name and the
// end of any allocation. Real machines have a finite physical map; here
// the cap keeps a hostile or bit-flipped offset (Store grows to fit) or a
// program-sized allocation from ballooning the backing slice into an
// out-of-memory. Well above any workload's footprint.
const MaxOffset = uint64(1) << 28 // 256 MiB per region

// CheckedLoad performs a mode-checked load at a simulated address.
func (as *AddressSpace) CheckedLoad(mode Mode, addr uint64, buf []byte) error {
	rid, off := DecodePtr(addr)
	if !CanAccess(mode, rid) {
		return &AccessError{Mode: mode, Target: rid, Addr: addr}
	}
	r := as.Region(rid)
	if r == nil {
		return fmt.Errorf("sgx: load from unmapped region %d", rid)
	}
	if off+uint64(len(buf)) > MaxOffset {
		return fmt.Errorf("sgx: load at %#x beyond region ceiling", addr)
	}
	r.Load(off, buf)
	return nil
}

// CheckedStore performs a mode-checked store at a simulated address.
func (as *AddressSpace) CheckedStore(mode Mode, addr uint64, buf []byte) error {
	rid, off := DecodePtr(addr)
	if !CanAccess(mode, rid) {
		return &AccessError{Mode: mode, Target: rid, Addr: addr}
	}
	r := as.Region(rid)
	if r == nil {
		return fmt.Errorf("sgx: store to unmapped region %d", rid)
	}
	if off+uint64(len(buf)) > MaxOffset {
		return fmt.Errorf("sgx: store at %#x beyond region ceiling", addr)
	}
	r.Store(off, buf)
	return nil
}
