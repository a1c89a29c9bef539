package machine

// RunCountingQuanta is runAsync with a counter: it advances the machine
// by durationMS in planned quanta and returns how many quanta the
// planner chose. Only meaningful on the planning engines.
func (m *Machine) RunCountingQuanta(durationMS int64) (quanta int) {
	end := m.nowMS + durationMS
	for m.nowMS < end {
		limit := end - m.nowMS
		if limit > m.maxQuantum {
			limit = m.maxQuantum
		}
		m.step(limit)
		quanta++
	}
	m.settleParkedTo(m.nowMS)
	return quanta
}
