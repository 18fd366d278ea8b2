package sgx

import "sync/atomic"

// CostModel carries the per-event cycle costs of the simulated SGX machine.
// Sources (see DESIGN.md §5): enclave transitions cost thousands of cycles
// (HotCalls [43]); the Intel SDK's lock-based switchless calls remain more
// expensive than Privagic's lock-free queue hop (§9.3.2, FastSGX [40]);
// an LLC miss in enclave mode takes 5.6–9.5x longer than in normal mode
// (Eleos [30], quoted twice by the paper); exceeding the EPC adds paging.
type CostModel struct {
	// EnclaveTransition is a full ecall/ocall-style crossing.
	EnclaveTransition int64
	// SwitchlessCall is the Intel SDK switchless call (lock-based spin).
	SwitchlessCall int64
	// SwitchlessContention is the extra cost per switchless round trip
	// when two enclaves ping-pong the lock (the Intel-sdk-2 case of
	// Figure 10; FastSGX [40] measures the convoy).
	SwitchlessContention int64
	// QueueMessage is one hop over Privagic's lock-free FIFO.
	QueueMessage int64
	// LLCHit and LLCMiss are normal-mode memory costs; DRAMRow is the
	// extra cost of a row-buffer miss (unused by default).
	LLCHit  int64
	LLCMiss int64
	// EnclaveMissFactor multiplies LLCMiss in enclave mode (5.6–9.5).
	EnclaveMissFactor float64
	// HitEnclaveFactor multiplies LLCHit in enclave mode: the EPC
	// access-control checks lengthen the L1-miss path even when the
	// line is on-package and needs no decryption.
	HitEnclaveFactor float64
	// EPCPageFault is the cost of an EPC paging event (the SGXv1 EWB
	// path under thrashing: AEX + kernel fault handling + eviction of a
	// victim page with integrity-tree updates).
	EPCPageFault int64
	// Syscall is a system call from normal mode; SyscallFromEnclave is
	// the full exit-syscall-reenter path a libOS pays.
	Syscall            int64
	SyscallFromEnclave int64
	// StreamMiss is the cost of an LLC miss on a sequential access
	// pattern, where the hardware prefetcher hides most of the latency
	// (this is why the paper's linked-list walk barely suffers in
	// enclave mode, Figure 9: only 1.2–1.7x vs unprotected).
	StreamMiss int64
	// StreamEnclaveFactor multiplies StreamMiss in enclave mode (the
	// MEE encrypts the stream but the prefetcher still pipelines it).
	StreamEnclaveFactor float64
	// TLBRefill is the per-page cost paid after an enclave transition
	// flushes the enclave TLB (an ordinary ECALL does; Privagic's
	// resident workers never transition, FastSGX [40]). It is the
	// workload-dependent part of the Intel SDK's boundary cost.
	TLBRefill int64
	// Retransmit is the cost of re-sending a message whose delivery was
	// not acknowledged in time: a timer read, re-enqueue, and the
	// receiver-side dedup check. Only the supervision layer pays it.
	Retransmit int64
}

// EnclaveMiss returns the enclave-mode LLC miss cost.
func (c *CostModel) EnclaveMiss() int64 {
	return int64(float64(c.LLCMiss) * c.EnclaveMissFactor)
}

// Machine is a hardware preset of the evaluation (§9.1).
type Machine struct {
	Name    string
	FreqGHz float64
	Cores   int
	// LLC geometry for the cache simulator.
	LLCBytes     int64
	LLCWays      int
	LLCLineBytes int
	// EPCBytes is the usable enclave page cache (93 MiB on machine A's
	// SGXv1; 8131 MiB on machine B's SGXv2).
	EPCBytes int64
	SGXv2    bool
	Cost     CostModel
}

// defaultCost returns the calibrated cost model shared by both machines.
func defaultCost() CostModel {
	return CostModel{
		EnclaveTransition:    8000,
		SwitchlessCall:       3000,
		SwitchlessContention: 6000,
		QueueMessage:         800,
		LLCHit:               40,
		LLCMiss:              220,
		EnclaveMissFactor:    8.5, // upper-mid band of Eleos's 5.6–9.5
		HitEnclaveFactor:     1.4,
		EPCPageFault:         320000,
		Syscall:              6000,
		SyscallFromEnclave:   23000,
		StreamMiss:           30,
		StreamEnclaveFactor:  2.0,
		TLBRefill:            30000,
		Retransmit:           1200, // one queue hop + timer bookkeeping
	}
}

// MachineA is the Intel i5-9500 of §9.1: 6 cores at 3 GHz, SGXv1 with a
// 93 MiB usable EPC, 9 MiB LLC.
func MachineA() *Machine {
	return &Machine{
		Name:         "machine-A/i5-9500",
		FreqGHz:      3.0,
		Cores:        6,
		LLCBytes:     9 << 20,
		LLCWays:      12,
		LLCLineBytes: 64,
		EPCBytes:     93 << 20,
		SGXv2:        false,
		Cost:         defaultCost(),
	}
}

// MachineB is the Xeon Gold 5415+ of §9.1: 16 CPUs, SGXv2 with an 8131 MiB
// EPC, 22.5 MiB LLC.
func MachineB() *Machine {
	return &Machine{
		Name:         "machine-B/xeon-5415+",
		FreqGHz:      2.9,
		Cores:        16,
		LLCBytes:     22*(1<<20) + (1 << 19), // 22.5 MiB
		LLCWays:      15,
		LLCLineBytes: 64,
		EPCBytes:     8131 << 20,
		SGXv2:        true,
		Cost:         defaultCost(),
	}
}

// SecondsFor converts cycles to seconds on this machine.
func (m *Machine) SecondsFor(cycles int64) float64 {
	return float64(cycles) / (m.FreqGHz * 1e9)
}

// Meter accumulates simulated cycles and event counts across threads.
type Meter struct {
	cycles      atomic.Int64
	transitions atomic.Int64
	messages    atomic.Int64
	syscalls    atomic.Int64
	pageFaults  atomic.Int64
	retransmits atomic.Int64
}

// ChargeTransition records an enclave boundary crossing.
func (mt *Meter) ChargeTransition(c *CostModel) {
	mt.transitions.Add(1)
	mt.cycles.Add(c.EnclaveTransition)
}

// ChargeMessage records one lock-free queue hop.
func (mt *Meter) ChargeMessage(c *CostModel) {
	mt.messages.Add(1)
	mt.cycles.Add(c.QueueMessage)
}

// ChargeRetransmit records one supervision-layer message retransmission.
func (mt *Meter) ChargeRetransmit(c *CostModel) {
	mt.retransmits.Add(1)
	mt.cycles.Add(c.Retransmit)
}

// Retransmits returns how many retransmissions were charged.
func (mt *Meter) Retransmits() int64 { return mt.retransmits.Load() }

// ChargeSyscall records a system call from the given mode.
func (mt *Meter) ChargeSyscall(c *CostModel, mode Mode) {
	mt.syscalls.Add(1)
	if mode == Unsafe {
		mt.cycles.Add(c.Syscall)
	} else {
		mt.cycles.Add(c.SyscallFromEnclave)
	}
}

// ChargePageFault records an EPC paging event.
func (mt *Meter) ChargePageFault(c *CostModel) {
	mt.pageFaults.Add(1)
	mt.cycles.Add(c.EPCPageFault)
}

// Cycles returns the accumulated cycle count.
func (mt *Meter) Cycles() int64 { return mt.cycles.Load() }

// Counts returns the event counters (transitions, messages, syscalls,
// page faults).
func (mt *Meter) Counts() (transitions, messages, syscalls, pageFaults int64) {
	return mt.transitions.Load(), mt.messages.Load(), mt.syscalls.Load(), mt.pageFaults.Load()
}

// Reset zeroes the meter.
func (mt *Meter) Reset() {
	mt.cycles.Store(0)
	mt.transitions.Store(0)
	mt.messages.Store(0)
	mt.syscalls.Store(0)
	mt.pageFaults.Store(0)
	mt.retransmits.Store(0)
}
