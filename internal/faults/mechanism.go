package faults

// RowWindow is the access history of one row over the window being
// evaluated, the input read disturb (disturb.Model) conditions on.
// Retention is queried with the row's idle time directly
// (AppendFailingCells).
type RowWindow struct {
	// Hammer is the number of activations of the row's physically
	// adjacent aggressor rows accumulated inside the current refresh
	// window (a blanket refresh restores every victim's charge, so
	// counts never carry across windows).
	Hammer int64
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
