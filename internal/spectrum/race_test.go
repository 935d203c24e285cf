//go:build race

package spectrum

func init() { raceEnabled = true }
