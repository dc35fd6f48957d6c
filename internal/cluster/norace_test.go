//go:build !race

package cluster_test

const raceDetector = false
