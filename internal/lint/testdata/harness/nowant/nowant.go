// Fixture for the testdata harness: a clean package that declares no
// expectation, which the harness must reject.
package nowant

func add(a, b int) int { return a + b }
