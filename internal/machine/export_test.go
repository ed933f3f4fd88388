package machine

// StepFallbacks returns how many instructions m's Run and RunFor retired
// on the reference stepper; every other instruction ran translated.
func StepFallbacks(m *Machine) uint64 { return m.stepFallbacks }
