//go:build !race

package conformal

// raceEnabled reports whether the test binary was built with the race
// detector, which perturbs allocation counts.
const raceEnabled = false
