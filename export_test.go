package remo

// LastPlanEvaluations returns the planner evaluations of the last plan
// m's adaptor committed — a task swap's or a heal's — so the external
// tests can tell a restored plan from a searched one.
func LastPlanEvaluations(m *Monitor) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.adaptor.Last().Replan.Evaluations
}
