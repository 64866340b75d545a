package appraisal

// RuleVerifications returns how many rule sets m has verified.
func (m *Mechanism) RuleVerifications() int64 { return m.verified.Load() }
