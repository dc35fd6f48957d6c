//go:build !linux

package deadline

func newSource() source { return newTimerSource() }
