//go:build race

package cluster_test

// raceDetector reports that the tests run under the race detector, where a
// burst of writes is bound by instrumented CPU, not by injected distance:
// tests keep every check but a wall-clock bound stated in round trips, and
// may put the quorum further away so that distance still dominates a commit.
const raceDetector = true
