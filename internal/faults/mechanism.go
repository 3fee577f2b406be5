package faults

import (
	"memcon/internal/dram"
)

// RowWindow is the access/idle history of one row over the window being
// evaluated — the mechanism-independent inputs a failure mechanism may
// condition on. Retention reads Idle; read disturb reads Hammer; a
// future mechanism adds its field here without touching existing
// implementations.
type RowWindow struct {
	// Idle is how long the row's content has gone without a recharge
	// (refresh or activation) at evaluation time.
	Idle dram.Nanoseconds
	// Hammer is the number of activations of the row's physically
	// adjacent aggressor rows accumulated inside the current refresh
	// window (a blanket refresh restores every victim's charge, so
	// counts never carry across windows).
	Hammer int64
}

// Mechanism is one physical failure mechanism of the simulated silicon.
// The contract: given the module's CURRENT content and one row's
// access/idle history for the window, append the system columns of the
// cells that fail, deterministically — same (model seed, content,
// window) always yields the same cells, in the same order. Verdicts
// must depend only on the arguments and on immutable model state, so a
// Mechanism is safe for concurrent readers and two mechanisms can be
// co-simulated against one module without coordination.
//
// DESIGN.md §6 records the invariants consumers rely on.
type Mechanism interface {
	// MechanismName identifies the mechanism ("retention", "disturb").
	MechanismName() string
	// AppendFailures appends the failing system columns of row a under
	// the module's current content and the row's window history. The
	// module is never modified; callers decide whether to commit flips.
	AppendFailures(dst []int, mod *dram.Module, a dram.RowAddress, w RowWindow) []int
	// RowVulnerable reports whether the row could fail under SOME
	// content with this window history — a cheap, content-independent
	// pre-filter (no module access).
	RowVulnerable(a dram.RowAddress, w RowWindow) bool
}

// Model implements Mechanism with the retention kernel: failures depend
// on the window's idle time and the stored content's interference
// stress; the hammer count is irrelevant to leakage.
var _ Mechanism = (*Model)(nil)

// MechanismName implements Mechanism.
func (m *Model) MechanismName() string { return "retention" }

// AppendFailures implements Mechanism by delegating to the retention
// kernel: verdicts are exactly AppendFailingCells's at w.Idle.
func (m *Model) AppendFailures(dst []int, mod *dram.Module, a dram.RowAddress, w RowWindow) []int {
	return m.AppendFailingCells(dst, mod, a, w.Idle)
}

// RowVulnerable implements Mechanism via the per-row retention floor.
func (m *Model) RowVulnerable(a dram.RowAddress, w RowWindow) bool {
	return m.RowCanFail(a, w.Idle)
}

// PhysRowOfSys returns the physical row the given system row of a bank
// maps to. Secondary mechanisms (disturb) anchor their victim
// populations to physical rows so aggressor adjacency matches the
// retention model's NeighborSysRows view of the same silicon.
func (m *Model) PhysRowOfSys(bank, sysRow int) int {
	return int(m.physRowOfSys[bank][sysRow])
}

// SysRowOfPhys is PhysRowOfSys's inverse: the system row of a bank that
// maps to the given physical row.
func (m *Model) SysRowOfPhys(bank, physRow int) int {
	return m.sysRowOfPhys[bank][physRow]
}

// RowChargedBit returns the logical bit value that stores charge in the
// given system row (1 for true-cell rows, 0 for anti-cell rows). Charge
// orientation is a property of the physical row, shared by every
// mechanism: a disturb victim loses charge exactly like a leaky
// retention cell, so only cells currently holding the charged value can
// flip.
func (m *Model) RowChargedBit(bank, sysRow int) uint8 {
	if m.trueCell(int(m.physRowOfSys[bank][sysRow])) {
		return 1
	}
	return 0
}
