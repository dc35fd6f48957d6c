package bench

// Experiment is one registered table or figure and its driver.
type Experiment struct {
	ID  string
	Run func() *Result
}

// Experiments is the registry, in canonical order: tables, figures, then
// ablations (DESIGN.md §4 and EXPERIMENTS.md list the same IDs;
// TestExperimentIndexInSync holds them to it). soakRuns parameterizes T5
// (0 = default); f10Short selects F10's CI-sized sweep over the full one.
func Experiments(soakRuns int, f10Short bool) []Experiment {
	f10 := DefaultWANSuiteOptions()
	if f10Short {
		f10 = ShortWANSuiteOptions()
	}
	return []Experiment{
		{"T1", Frontier},
		{"T2", Coverage},
		{"T3", Recovery},
		{"T3b", DurableRecovery},
		{"T4", LowerBounds},
		{"T5", func() *Result { return SoakTable(soakRuns) }},
		{"T6", ModelCheck},
		{"T7", ChaosSoak},
		{"F1", LatencyVsCrashes},
		{"F2", LatencyVsConflicts},
		{"F3", WAN},
		{"F5", Placement},
		{"F10", func() *Result { return WANSuite(f10) }},
		{"A1", Ablation},
	}
}
