package machine

// runLockstep is the classic simulation loop: one shared-engine step of
// exactly one millisecond per iteration. It is the reference behavior
// the async engine must reproduce — a 1 ms quantum runs the identical
// code path, so the engines can only diverge if a planned quantum spans
// a state change the planner failed to foresee (which the cross-engine
// equivalence tests guard against).
func (m *Machine) runLockstep(durationMS int64) {
	end := m.nowMS + durationMS
	for m.nowMS < end {
		m.step(1)
	}
}
