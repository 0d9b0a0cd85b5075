// Package vm implements the whole-system virtual machine: a single
// deterministic FAROS-32 CPU executing over paged virtual memory.
//
// Guest code runs as cached, predecoded micro-op blocks (block.go). One
// analysis engine — the FAROS DIFT engine — may attach through the Engine
// interface: it executes those blocks with its analysis fused in, and
// observes the per-instruction Step fallback one instruction at a time.
// The CPU itself knows nothing about processes or syscalls; it raises
// traps that the guest kernel interprets.
package vm

import (
	"fmt"

	"faros/internal/isa"
	"faros/internal/mem"
)

// Flags is the CPU condition-flag state set by CMP.
type Flags struct {
	Z bool // last comparison was equal
	S bool // last comparison was signed less-than
}

// CPU is the architectural register state. It is copied wholesale on
// context switches, so it contains no pointers.
type CPU struct {
	Regs  [isa.NumRegs]uint32
	EIP   uint32
	Flags Flags
}

// Trap is the reason Step returned control to the kernel.
type Trap uint8

// Trap kinds.
const (
	// TrapNone means the instruction completed; execution may continue.
	TrapNone Trap = iota + 1
	// TrapSyscall means a SYSCALL executed; EIP points after it.
	TrapSyscall
	// TrapHalt means HLT executed.
	TrapHalt
	// TrapFault means the instruction faulted (decode error or memory
	// violation); EIP still points at the faulting instruction.
	TrapFault
)

func (t Trap) String() string {
	switch t {
	case TrapNone:
		return "none"
	case TrapSyscall:
		return "syscall"
	case TrapHalt:
		return "halt"
	case TrapFault:
		return "fault"
	}
	return "trap?"
}

// Machine is the whole system: physical memory, one CPU, and the attached
// analysis engine.
type Machine struct {
	// CPU is the live architectural state.
	CPU CPU
	// InstrCount counts retired instructions and doubles as the machine's
	// clock; the record/replay log is stamped with it.
	InstrCount uint64

	phys  *mem.Phys
	space *mem.Space

	// icache caches decoded instructions per physical frame, indexed by
	// frame number (frames are allocated densely from zero). Guest stores
	// and kernel copies invalidate the written frames, so self-modifying
	// payloads and JIT code caches decode fresh. A slice keeps the
	// per-store invalidation at an indexed nil assignment instead of a map
	// delete.
	icache []*icachePage

	// fetchTLB is a one-entry software TLB for sequential instruction
	// fetch: it remembers the current code page's icache entry and is
	// dropped on context switch, mapping change (space generation), or
	// icache invalidation. vpn doubles as the valid bit (invalidVPN =
	// invalid); the entry always belongs to the current space because
	// SetSpace invalidates it, so the per-fetch check is just vpn + gen.
	fetchTLB struct {
		gen   uint64
		vpn   uint32
		frame uint32
		page  *icachePage
	}

	// dtlb caches the last read and write data translations (indices 0/1).
	dtlb [2]dataTLBEntry

	// blocks caches predecoded micro-op blocks per physical frame (see
	// block.go), invalidated alongside the icache. btlb is the one-entry
	// lookup TLB; blockEpoch counts invalidations so running blocks can
	// detect self-modifying code.
	blocks     []*blockPage
	btlb       blockTLB
	blockEpoch uint64
	bstats     BlockStats
	// blocksOff disables block dispatch (RunBlock degenerates to Step).
	blocksOff bool

	// engine is the attached analysis engine, nil when none (see Engine).
	engine Engine
}

// dataTLBEntry is one cached data translation.
type dataTLBEntry struct {
	space *mem.Space
	gen   uint64
	vpn   uint32
	frame uint32
	ok    bool
}

// lookupPA is the data-TLB hit test, call-free so it inlines into the
// data accessors; on a miss the caller refills through dataPAFill. slot 0
// caches reads, slot 1 writes.
func (m *Machine) lookupPA(va uint32, slot int) (mem.PhysAddr, bool) {
	t := &m.dtlb[slot]
	if t.ok && t.space == m.space && t.vpn == va>>mem.PageShift && t.gen == m.space.Gen() {
		return mem.PhysAddr(t.frame)<<mem.PageShift | mem.PhysAddr(va%mem.PageSize), true
	}
	return 0, false
}

// dataPAFill is the data-TLB miss path: translate and refill the entry.
func (m *Machine) dataPAFill(va uint32, kind mem.AccessKind, t *dataTLBEntry) (mem.PhysAddr, error) {
	pa, err := m.space.Translate(va, kind)
	if err != nil {
		return 0, err
	}
	t.space = m.space
	t.gen = m.space.Gen()
	t.vpn = va >> mem.PageShift
	t.frame = pa.Frame()
	t.ok = true
	return pa, nil
}

// icacheSlots is the number of 8-byte instruction slots per frame.
const icacheSlots = mem.PageSize / isa.InstrSize

// invalidVPN marks the fetch TLB empty; no 32-bit address has this page
// number.
const invalidVPN = ^uint32(0)

// icachePage holds decoded instructions for one physical frame. state 0 is
// unknown, 1 decoded, 2 undecodable.
type icachePage struct {
	instrs [icacheSlots]isa.Instruction
	state  [icacheSlots]uint8
}

// New creates a machine over the given physical memory.
func New(phys *mem.Phys) *Machine {
	m := &Machine{phys: phys}
	m.fetchTLB.vpn = invalidVPN
	m.btlb.vpn = invalidVPN
	return m
}

// InvalidateFrame drops cached decodes for a physical frame. The kernel
// calls it after privileged copies (loader section writes, cross-process
// injection) that bypass the CPU's store path; the CPU itself calls it on
// every store, so it must stay cheap for frames with nothing cached.
func (m *Machine) InvalidateFrame(frame uint32) {
	if int(frame) < len(m.icache) {
		m.icache[frame] = nil
	}
	if m.fetchTLB.frame == frame {
		m.fetchTLB.vpn = invalidVPN
	}
	// Drop cached blocks. The epoch bumps only when the frame actually had
	// a block page, so data-page stores never bail running blocks.
	if int(frame) < len(m.blocks) && m.blocks[frame] != nil {
		m.blocks[frame] = nil
		m.blockEpoch++
		m.bstats.Invalidated++
	}
	if m.btlb.frame == frame {
		m.btlb.vpn = invalidVPN
	}
}

// Phys returns the machine's physical memory.
func (m *Machine) Phys() *mem.Phys { return m.phys }

// SetSpace switches the active address space (the CR3 load of a context
// switch). The kernel saves/restores CPU state around it.
func (m *Machine) SetSpace(s *mem.Space) {
	if m.space != s {
		m.fetchTLB.vpn = invalidVPN
		m.btlb.vpn = invalidVPN
	}
	m.space = s
}

// Space returns the active address space (nil before the first SetSpace).
func (m *Machine) Space() *mem.Space { return m.space }

// CR3 returns the active address space identity, or 0 if none.
func (m *Machine) CR3() uint32 {
	if m.space == nil {
		return 0
	}
	return m.space.CR3()
}

// AttachEngine attaches the analysis engine. Only one may be attached;
// from then on block dispatch runs every block through its ExecBlock and
// Step calls its BeforeInstr before each instruction.
func (m *Machine) AttachEngine(e Engine) {
	if m.engine != nil {
		panic("vm: AttachEngine called twice")
	}
	m.engine = e
}

// FetchInstr reads and decodes the instruction at va with execute
// permission, going through the decoded-instruction cache when the fetch
// does not straddle a page boundary.
func (m *Machine) FetchInstr(va uint32) (isa.Instruction, error) {
	// Fast path: same code page as the previous fetch, mappings unchanged.
	if t := &m.fetchTLB; t.vpn == va>>mem.PageShift &&
		t.gen == m.space.Gen() && va%isa.InstrSize == 0 {
		slot := (va % mem.PageSize) / isa.InstrSize
		if t.page.state[slot] == 1 {
			return t.page.instrs[slot], nil
		}
	}
	pa, err := m.space.Translate(va, mem.AccessExec)
	if err != nil {
		return isa.Instruction{}, err
	}
	off := pa.Offset()
	if off%isa.InstrSize != 0 || off > mem.PageSize-isa.InstrSize {
		// Unaligned or page-straddling fetch: slow path, uncached.
		buf, err := m.space.ReadBytes(va, isa.InstrSize, mem.AccessExec)
		if err != nil {
			return isa.Instruction{}, err
		}
		return isa.Decode(buf)
	}
	frame := pa.Frame()
	var page *icachePage
	if int(frame) < len(m.icache) {
		page = m.icache[frame]
	}
	if page == nil {
		page = &icachePage{}
		for int(frame) >= len(m.icache) {
			m.icache = append(m.icache, nil)
		}
		m.icache[frame] = page
	}
	m.fetchTLB.gen = m.space.Gen()
	m.fetchTLB.vpn = va >> mem.PageShift
	m.fetchTLB.frame = frame
	m.fetchTLB.page = page
	slot := off / isa.InstrSize
	switch page.state[slot] {
	case 1:
		return page.instrs[slot], nil
	case 2:
		return isa.Instruction{}, fmt.Errorf("vm: invalid instruction at 0x%08X", va)
	}
	f, err := m.phys.Frame(frame)
	if err != nil {
		return isa.Instruction{}, err
	}
	in, err := isa.Decode(f[off : off+isa.InstrSize])
	if err != nil {
		page.state[slot] = 2
		return isa.Instruction{}, err
	}
	page.instrs[slot] = in
	page.state[slot] = 1
	return in, nil
}

// FaultError is the typed error carried by every TrapFault return from
// Step. It records the faulting PC so kernels can build structured guest
// exceptions instead of treating the fault as an opaque run failure.
type FaultError struct {
	// PC is the address of the faulting instruction.
	PC uint32
	// Err describes the fault (decode error, memory violation, ...).
	Err error
}

func (e *FaultError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying fault cause to errors.Is/As.
func (e *FaultError) Unwrap() error { return e.Err }

// fault pairs TrapFault with a typed FaultError at pc.
func fault(pc uint32, err error) (Trap, error) {
	return TrapFault, &FaultError{PC: pc, Err: err}
}

// Step executes one instruction. On TrapFault the returned error is a
// *FaultError describing the fault and EIP is unchanged; for all other
// traps EIP has advanced.
func (m *Machine) Step() (Trap, error) {
	if m.space == nil {
		return fault(m.CPU.EIP, fmt.Errorf("vm: no address space loaded"))
	}
	pc := m.CPU.EIP
	// Fetch fast path, by hand: FetchInstr is beyond the inlining budget,
	// and the call alone is measurable at one call per instruction. The
	// condition mirrors FetchInstr's TLB hit exactly.
	var in isa.Instruction
	var err error
	slot := pc % mem.PageSize / isa.InstrSize
	if t := &m.fetchTLB; t.vpn == pc>>mem.PageShift && t.gen == m.space.Gen() &&
		pc%isa.InstrSize == 0 && t.page.state[slot] == 1 {
		in = t.page.instrs[slot]
	} else {
		in, err = m.FetchInstr(pc)
		if err != nil {
			return fault(pc, fmt.Errorf("vm: fetch at 0x%08X: %w", pc, err))
		}
	}
	if e := m.engine; e != nil {
		e.BeforeInstr(m, pc, in)
	}

	next := pc + isa.InstrSize
	trap := TrapNone
	regs := &m.CPU.Regs

	switch in.Op {
	case isa.OpNop:
	case isa.OpHlt:
		trap = TrapHalt
	case isa.OpSyscall:
		trap = TrapSyscall
	case isa.OpMov:
		if in.Mode == isa.ModeRR {
			regs[in.Dst] = regs[in.Src]
		} else {
			regs[in.Dst] = in.Imm
		}
	case isa.OpLd, isa.OpLdb:
		// The &7 masks are free (Decode validated the registers) and let
		// the compiler elide the bounds checks.
		addr := regs[in.Src&7] + in.Imm
		if in.Mode == isa.ModeRX {
			addr = regs[in.Src&7] + regs[in.Imm&7]
		}
		var v uint32
		if in.Op == isa.OpLd {
			v, _, err = m.DataRead32(addr)
		} else {
			v, _, err = m.DataRead8(addr)
		}
		if err != nil {
			return fault(pc, err)
		}
		regs[in.Dst&7] = v
	case isa.OpSt, isa.OpStb:
		addr := regs[in.Dst&7] + in.Imm
		if in.Mode == isa.ModeXR {
			addr = regs[in.Dst&7] + regs[in.Imm&7]
		}
		if in.Op == isa.OpSt {
			_, err = m.DataWrite32(addr, regs[in.Src])
		} else {
			_, err = m.DataWrite8(addr, byte(regs[in.Src]))
		}
		if err != nil {
			return fault(pc, err)
		}
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMul, isa.OpShl, isa.OpShr:
		src := in.Imm
		if in.Mode == isa.ModeRR {
			src = regs[in.Src]
		}
		regs[in.Dst] = isa.EvalALU(in.Op, regs[in.Dst], src)
	case isa.OpNot:
		regs[in.Dst] = ^regs[in.Dst]
	case isa.OpCmp:
		b := in.Imm
		if in.Mode == isa.ModeRR {
			b = regs[in.Src]
		}
		a := regs[in.Dst]
		m.CPU.Flags.Z = a == b
		m.CPU.Flags.S = int32(a) < int32(b)
	case isa.OpJmp:
		next = m.jumpTarget(pc, in)
	case isa.OpJz, isa.OpJnz, isa.OpJl, isa.OpJg, isa.OpJle, isa.OpJge:
		if isa.CondTaken(in.Op, m.CPU.Flags.Z, m.CPU.Flags.S) {
			next = m.jumpTarget(pc, in)
		}
	case isa.OpCall:
		regs[isa.ESP] -= 4
		if _, err := m.DataWrite32(regs[isa.ESP], pc+isa.InstrSize); err != nil {
			regs[isa.ESP] += 4
			return fault(pc, err)
		}
		next = m.jumpTarget(pc, in)
	case isa.OpRet:
		v, _, err := m.DataRead32(regs[isa.ESP])
		if err != nil {
			return fault(pc, err)
		}
		regs[isa.ESP] += 4
		next = v
	case isa.OpPush:
		v := in.Imm
		if in.Mode == isa.ModeRR {
			v = regs[in.Dst]
		}
		regs[isa.ESP] -= 4
		if _, err := m.DataWrite32(regs[isa.ESP], v); err != nil {
			regs[isa.ESP] += 4
			return fault(pc, err)
		}
	case isa.OpPop:
		v, _, err := m.DataRead32(regs[isa.ESP])
		if err != nil {
			return fault(pc, err)
		}
		regs[isa.ESP] += 4
		regs[in.Dst] = v
	default:
		return fault(pc, fmt.Errorf("vm: unimplemented opcode %s at 0x%08X", in.Op, pc))
	}

	m.CPU.EIP = next
	m.InstrCount++
	return trap, nil
}

// jumpTarget resolves the destination of a jump/call.
func (m *Machine) jumpTarget(pc uint32, in isa.Instruction) uint32 {
	switch in.Mode {
	case isa.ModeRI:
		return in.Imm
	case isa.ModeRel:
		return pc + isa.InstrSize + uint32(in.RelOffset())
	case isa.ModeRR:
		return m.CPU.Regs[in.Dst]
	}
	return pc + isa.InstrSize
}

// Run executes up to maxSteps instructions or until a non-none trap.
// It returns the trap and the number of instructions retired.
func (m *Machine) Run(maxSteps uint64) (Trap, uint64, error) {
	var n uint64
	for n < maxSteps {
		trap, err := m.Step()
		if err != nil {
			return trap, n, err
		}
		n++
		if trap != TrapNone {
			return trap, n, nil
		}
	}
	return TrapNone, n, nil
}
