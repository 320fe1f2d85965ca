//go:build race

package kernelcheck

const raceEnabled = true
