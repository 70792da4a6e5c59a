package conformal

// TakesGroupLayout reports whether a query with features q takes the
// selection strategy with its distances computed over the group layout.
func (l *Localized) TakesGroupLayout(q []float64) bool {
	return l.strategy(q) == strategySelect && l.layout != nil && len(q) == l.layout.dim
}

// LayoutBytes returns the memory the group layout holds and the memory of
// the feature block it describes (0 and 0 without a layout).
func (l *Localized) LayoutBytes() (layout, block int) {
	if l.layout == nil {
		return 0, 0
	}
	return l.layout.bytes(), 8 * l.layout.n * l.layout.dim
}

// RaceEnabled reports whether the test binary was built with the race
// detector, which perturbs allocation counts.
const RaceEnabled = raceEnabled
