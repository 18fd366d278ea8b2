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
	"encoding/binary"
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

// Pages: a region's memory is a table of 4 KiB pages, each an array of
// 64-bit words accessed atomically. A page is mapped the first time
// something is stored into it; an unmapped page reads as zeros.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageWords = pageSize / 8
	// maxPages is the table length that covers every offset below
	// MaxOffset, the most any checked access can name.
	maxPages = MaxOffset / pageSize
)

// page is one mapped 4 KiB page. Byte i of word w is the byte at page
// offset 8w+i, least significant first, the little-endian order the
// interpreter's integer encoding uses.
type page [pageWords]atomic.Uint64

// Region is one memory region (unsafe memory or an enclave). Loads and
// stores take no lock: a word is one atomic access, and the page table
// is published through an atomic pointer. mu serializes allocation and
// page mapping.
type Region struct {
	ID   RegionID
	Name string

	mu sync.Mutex
	// table is the page table; a nil entry is a page never stored to. A
	// mapping under mu stores the entry, or, when the page lies past the
	// table, copies the table into one at least twice as long and
	// publishes the copy here.
	table atomic.Pointer[[]atomic.Pointer[page]]
	// brk is the bump-allocation watermark. TryAlloc stores it while it
	// holds mu; Extent reads it without the lock (the sanitizer asks on
	// every boundary check).
	brk    atomic.Uint64
	used   atomic.Int64
	mapped atomic.Int64
}

// NewRegion creates an empty region: no page is mapped until a store.
func NewRegion(id RegionID, name string) *Region {
	r := &Region{ID: id, Name: name}
	r.table.Store(new([]atomic.Pointer[page]))
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
// size must fail the program, not exhaust the host's memory. Only the
// watermark moves; the pages behind it are mapped by the first store.
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
	r.brk.Store(off + uint64(n))
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

// Mapped returns the bytes held by the region's mapped pages.
func (r *Region) Mapped() int64 { return r.mapped.Load() * pageSize }

// Extent returns the allocation watermark: offsets below it are mapped,
// offsets at or above it have never been handed out by Alloc. This is the
// region's memory map as far as pointer sanitization is concerned — an
// address arriving from unsafe memory is only dereferenced if its whole
// range lies under the extent of its region.
func (r *Region) Extent() uint64 { return r.brk.Load() }

// pageAt returns the page holding off, or nil when it was never mapped.
func (r *Region) pageAt(off uint64) *page {
	t := *r.table.Load()
	if i := off >> pageShift; i < uint64(len(t)) {
		return t[i].Load()
	}
	return nil
}

// mapPage returns the page holding off, mapping it on first use. An
// offset at or past MaxOffset panics: every checked access is held under
// the ceiling first (Ref.Check), so only a host bug gets here.
func (r *Region) mapPage(off uint64) *page {
	if p := r.pageAt(off); p != nil {
		return p
	}
	i := off >> pageShift
	if i >= maxPages {
		panic(fmt.Sprintf("sgx: store at offset %#x of region %d beyond the region ceiling", off, r.ID))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := *r.table.Load()
	if i >= uint64(len(t)) {
		grown := make([]atomic.Pointer[page], min(max(2*uint64(len(t)), i+1), maxPages))
		for j := range t {
			grown[j].Store(t[j].Load())
		}
		r.table.Store(&grown)
		t = grown
	}
	p := t[i].Load()
	if p == nil {
		p = new(page)
		t[i].Store(p)
		r.mapped.Add(1)
	}
	return p
}

// LoadWord returns the 8-byte word at off, which must be 8-aligned, as
// one atomic read. A word of an unmapped page is zero.
func (r *Region) LoadWord(off uint64) uint64 {
	if p := r.pageAt(off); p != nil {
		return p[off%pageSize/8].Load()
	}
	return 0
}

// StoreWord writes the 8-byte word at off, which must be 8-aligned, as
// one atomic write, mapping its page if needed.
func (r *Region) StoreWord(off, v uint64) {
	r.mapPage(off)[off%pageSize/8].Store(v)
}

// Load copies len(buf) bytes at off into buf. Reads of unmapped pages,
// including any past MaxOffset, return zeros instead of faulting: the
// simulated machine must never let a hostile (or corrupted) out-of-range
// address crash the host process — on real SGX the access faults inside
// the enclave, and here the sanitization layer (when armed) raises the
// typed violation before the load is even attempted.
func (r *Region) Load(off uint64, buf []byte) {
	for i := 0; i < len(buf); {
		at := off + uint64(i)
		w := r.LoadWord(at &^ 7)
		if at%8 == 0 && len(buf)-i >= 8 {
			binary.LittleEndian.PutUint64(buf[i:], w)
			i += 8
			continue
		}
		for sh := (at % 8) * 8; sh < 64 && i < len(buf); sh += 8 {
			buf[i] = byte(w >> sh)
			i++
		}
	}
}

// MergeWord writes the bits of v under mask into the 8-byte word at off,
// which must be 8-aligned, mapping its page if needed. A whole word is
// one atomic write; a partial one is merged with a compare-and-swap, so
// concurrent stores to the word's other bits are never lost.
func (r *Region) MergeWord(off, v, mask uint64) {
	w := &r.mapPage(off)[off%pageSize/8]
	if mask == ^uint64(0) {
		w.Store(v)
		return
	}
	v &= mask
	for old := w.Load(); !w.CompareAndSwap(old, old&^mask|v); old = w.Load() {
	}
}

// Store copies buf into the region at off, one MergeWord per touched
// word.
func (r *Region) Store(off uint64, buf []byte) {
	ForWords(off, buf, r.MergeWord)
}

// ForWords splits the bytes of data, destined for offset off, into the
// aligned 8-byte words they touch, and calls fn with each word's offset,
// the bytes in their places in the word and the bit mask of those bytes.
func ForWords(off uint64, data []byte, fn func(wordOff, v, mask uint64)) {
	for i := 0; i < len(data); {
		at := off + uint64(i)
		if at%8 == 0 && len(data)-i >= 8 {
			fn(at, binary.LittleEndian.Uint64(data[i:]), ^uint64(0))
			i += 8
			continue
		}
		var v, mask uint64
		for sh := (at % 8) * 8; sh < 64 && i < len(data); sh += 8 {
			v |= uint64(data[i]) << sh
			mask |= 0xff << sh
			i++
		}
		fn(at&^7, v, mask)
	}
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
// the cap bounds the page table a hostile or bit-flipped offset can make
// a store grow (a far store maps one page, but the table must reach it),
// and keeps a program-sized allocation from mapping its way into an
// out-of-memory. Well above any workload's footprint.
const MaxOffset = uint64(1) << 28 // 256 MiB per region

// Ref is one decoded simulated address: the region it names (nil when
// unmapped) and the offset inside it.
type Ref struct {
	Addr   uint64
	ID     RegionID
	Region *Region
	Off    uint64
}

// Resolve decodes addr and looks its region up. Every checked access
// starts here, so an access decodes its address once.
func (as *AddressSpace) Resolve(addr uint64) Ref {
	id, off := DecodePtr(addr)
	return Ref{Addr: addr, ID: id, Region: as.Region(id), Off: off}
}

// Check applies the machine's access rules to an n-byte access at ref:
// the mode may touch the region (§2.1), the region is mapped, and the
// range ends at or below MaxOffset. It is the one place those rules
// live; direct and buffered stores, and every load, go through it.
func (ref Ref) Check(mode Mode, n int, store bool) error {
	if !CanAccess(mode, ref.ID) {
		return &AccessError{Mode: mode, Target: ref.ID, Addr: ref.Addr}
	}
	op, dir := "load", "from"
	if store {
		op, dir = "store", "to"
	}
	if ref.Region == nil {
		return fmt.Errorf("sgx: %s %s unmapped region %d", op, dir, ref.ID)
	}
	if n < 0 || ref.Off > MaxOffset || uint64(n) > MaxOffset-ref.Off {
		return fmt.Errorf("sgx: %s at %#x beyond region ceiling", op, ref.Addr)
	}
	return nil
}
