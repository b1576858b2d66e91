package codegen

// SetVarRegs lets n registers of each file hold variables, until the
// returned function restores the count.
func SetVarRegs(n int) (restore func()) {
	old := varRegs
	varRegs = n
	return func() { varRegs = old }
}
